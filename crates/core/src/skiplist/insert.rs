//! `Insert_SL`: bottom-up tower construction (paper §4).

use std::ptr;
use std::sync::atomic::Ordering;

use lf_reclaim::{Publish, Reclaim};
use lf_tagged::{step, StepKind};

use super::node::SkipNode;
use super::{Bound, Mode, SkipList};
use crate::list::{Level, LevelNode};
use crate::pool::LocalPool;

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
    /// contiguous pool block (see [`SkipNode`]); node `i` of the block
    /// serves level `i + 1`.
    ///
    /// Linearizes when the root node is linked. If the root gets marked
    /// (by a concurrent deletion) while upper levels are still being
    /// built, construction stops — and if a node was just linked into
    /// the now-superfluous tower, this operation deletes it again.
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
        pool: &LocalPool<SkipNode<K, V, R>>,
        guard: &R::Guard<'_>,
    ) -> Result<(), (K, V)> {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            // ord: Release/Acquire/Relaxed — LIST.flag-cas: descent helps flagged deletions (wrapped C&S)
            let (mut prev, mut next) = self.search_to_level(&key, 1, Mode::Le, guard);
            if (*prev).key_ref().as_key() == Some(&key) {
                return Err((key, value));
            }
            let height = self.tower_height(height_bits);
            let (root, recycled) = pool.acquire(height);
            SkipNode::init_tower_at(root, height, key, value, R::birth_epoch(guard), recycled);
            let mut new_node = root;
            let mut cur_level = 1usize;

            loop {
                let inserted = self.insert_node(new_node, &mut prev, &mut next, guard);

                if !inserted && cur_level == 1 {
                    // The root was never published; move key/element back
                    // out, return the block to the pool, and hand the pair
                    // back.
                    let k = ptr::read(&(*root).key);
                    let v = ptr::read(&(*root).element);
                    pool.release(root, height);
                    match (k, v) {
                        (Bound::Key(k), Some(v)) => return Err((k, v)),
                        _ => unreachable!("root carries key and element"),
                    }
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
                        // `new_node` (an upper node) was never linked:
                        // undo its tower accounting. The node itself is
                        // part of the root's block and needs no freeing.
                        self.abandon_upper(root, new_node);
                    } else if new_node != root {
                        // We just linked a node into a superfluous
                        // tower: delete it again (all three steps). A
                        // targeted delete can be deflected when another
                        // interrupted construction left a same-key
                        // superfluous node at this level (the Lt-mode
                        // relocation search stops at the first of
                        // them), so loop with Le-mode cleaning searches
                        // — which delete every superfluous node on
                        // their path — until our node is marked.
                        // ord: Release/Acquire/Relaxed — LIST.flag-cas: wrapped flagging C&S; pred is dereferenced
                        self.delete_node(prev, new_node, guard);
                        loop {
                            step(StepKind::Read);
                            if (*new_node).is_marked() {
                                break;
                            }
                            let key_ref = (*root).key.as_key().expect("root has user key");
                            // ord: Release/Acquire/Relaxed — LIST.flag-cas: cleaning search deletes superfluous towers (wrapped C&S)
                            let _ = self.search_to_level(key_ref, cur_level, Mode::Le, guard);
                        }
                    }
                    self.release_tower_ref(root, guard); // construction ref
                    return Ok(());
                }

                if !inserted {
                    // A leftover superfluous node with our key occupies this
                    // level; our searches delete superfluous towers, so
                    // retrying makes progress.
                    let key_ref = (*root).key.as_key().expect("root has user key");
                    // ord: Release/Acquire/Relaxed — LIST.flag-cas: cleaning search deletes superfluous towers (wrapped C&S)
                    let (p, n) = self.search_to_level(key_ref, cur_level, Mode::Le, guard);
                    prev = p;
                    next = n;
                    continue;
                }

                cur_level += 1;
                if cur_level > height {
                    self.release_tower_ref(root, guard); // construction ref
                    return Ok(());
                }

                // Grow the tower: the next block element is the next level's
                // node. Account for it before it can be linked (and thus
                // unlinked) by anyone. Relaxed increment: we hold the
                // construction reference, so the count cannot reach zero
                // concurrently (same argument as `Arc::clone`); our final
                // `release_tower_ref` (an AcqRel RMW on the same counter)
                // orders everything done here before the last decrement.
                let upper = root.add(cur_level - 1);
                // ord: Relaxed — TOWER.refcount: construction ref keeps count nonzero
                (*root).remaining.fetch_add(1, Ordering::Relaxed);
                // Relaxed: `top` is consulted only by quiescent diagnostics.
                // ord: Relaxed — TOWER.top: quiescent-only diagnostic field
                (*root).top.store(upper, Ordering::Relaxed);
                new_node = upper;

                let key_ref = (*root).key.as_key().expect("root has user key");
                // ord: Release/Acquire/Relaxed — LIST.flag-cas: ascent repositions via helping search (wrapped C&S)
                let (p, n) = self.search_to_level(key_ref, cur_level, Mode::Le, guard);
                prev = p;
                next = n;
            }
        }
    }

    /// Undo the accounting for a never-linked upper node. The node stays
    /// where it is — inside the root's block — and is reclaimed with it.
    ///
    /// # Safety
    ///
    /// Caller is the inserting thread (sole writer of `top`), still
    /// holding the construction reference; `upper` was never linked.
    unsafe fn abandon_upper(&self, root: *mut SkipNode<K, V, R>, upper: *mut SkipNode<K, V, R>) {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            // Relaxed stores: same argument as the growth accounting above —
            // the construction reference's own AcqRel release publishes
            // these to the eventual freeing thread.
            // ord: Relaxed — TOWER.top: quiescent-only diagnostic field
            (*root).top.store((*upper).down(), Ordering::Relaxed);
            // Cannot hit zero: we still hold the construction reference.
            // ord: Relaxed — TOWER.refcount: construction ref keeps count nonzero
            let prev = (*root).remaining.fetch_sub(1, Ordering::Relaxed);
            debug_assert!(prev >= 2);
        }
    }
}
