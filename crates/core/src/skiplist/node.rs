//! Skip list node layout: towers of per-level nodes (paper Fig. 6),
//! allocated as one contiguous block per tower.

use std::sync::atomic::{fence, AtomicPtr, AtomicU64, AtomicUsize, Ordering};

use lf_reclaim::{Publish, Reclaim, BIRTH_BUILDING};
use lf_tagged::{AtomicTaggedPtr, TaggedPtr};

pub(crate) use crate::list::Bound;
use crate::list::LevelNode;

/// One node of the lock-free skip list.
///
/// Unlike Pugh's array-of-forward-pointers layout, the paper represents
/// each key as a *tower* of separate nodes, one per level, so that each
/// level is literally an instance of the linked-list algorithms. Every
/// node carries the linked-list fields (`key`, `succ`, `backlink`) plus:
///
/// * `down` — the node one level below (null for root nodes);
/// * `tower_root` — the tower's level-1 node, consulted to detect
///   *superfluous* towers (root marked);
/// * `element` — the value, stored only in root nodes;
/// * `height`/`remaining`/`top` — tower layout and lifetime accounting
///   (see below), only meaningful on root nodes.
///
/// # Contiguous tower blocks
///
/// A tower's height is drawn *before* construction starts, so all of
/// its nodes are carved from **one** pool allocation of `height`
/// consecutive `SkipNode`s: element 0 is the root, element `i` the
/// level-`i+1` node, with `down` pointing at element `i - 1`. A descent
/// through a tower therefore walks backwards through one cache-local
/// block instead of chasing `height` separate heap objects, and the
/// whole tower is recycled with a single pool release (`height` is the
/// block's capacity). Nodes above the level actually reached during
/// construction stay initialized but unlinked; they are dead weight
/// inside the block and are reclaimed with it.
///
/// # Tower lifetime
///
/// `down` and `tower_root` let a traversal reach *any* node of a tower
/// from any other, so no node of a tower may be freed while any node of
/// it is still reachable. `remaining` counts one reference per node
/// linked into a level list plus one *construction reference* held by
/// the inserter while it is still growing the tower. Each physical
/// unlink (the type-4 C&S) releases one reference; when the count hits
/// zero the releasing thread retires the tower's block. `top` is
/// written only by the single inserting thread and is final once the
/// construction reference is dropped; it is consulted only by
/// quiescent diagnostics (tower census, validation).
///
/// # Reclamation-backend fields
///
/// Like the list's `Node`, every element carries a `birth` word (every
/// element of one tower holds the *same* value — the epoch the tower
/// was built in) and the root additionally carries shadow slots
/// (`skey`/`sval`) that pin-free readers snoop. `down` and `tower_root`
/// are atomic because a stale pin-free reader may load them while a
/// re-initializer rewrites the block; their *values* are a pure
/// function of the block's address and capacity (element `i` of a
/// `cap`-block always points down at element `i - 1` and roots at
/// element 0), and the pool buckets blocks by capacity, so every tenant
/// of a block stores the same values — a Relaxed load cannot observe a
/// wrong one. On pinned backends (`R::Slot<T> = ()`) the slots vanish
/// and `birth` is a constant 0.
#[repr(align(8))]
pub(crate) struct SkipNode<K, V, R: Reclaim> {
    pub(crate) key: Bound<K>,
    /// `None` except in root nodes of user towers.
    pub(crate) element: Option<V>,
    /// Birth epoch of this node's tenant, low 16 bits mirrored into
    /// every published pointer's stamp; [`BIRTH_BUILDING`] is set while
    /// a re-initializer is rewriting the block. Constant 0 on pinned
    /// backends and on sentinels.
    pub(crate) birth: AtomicU64,
    /// Shadow of the root's `key` for pin-free readers (roots only).
    pub(crate) skey: R::Slot<K>,
    /// Shadow of the root's `element` for pin-free readers (roots only).
    pub(crate) sval: R::Slot<V>,
    /// The composite successor field within this node's level list.
    pub(crate) succ: AtomicTaggedPtr<SkipNode<K, V, R>>,
    /// Set before marking; points at the flagged predecessor (INV 4).
    pub(crate) backlink: AtomicPtr<SkipNode<K, V, R>>,
    /// The node one level below in the same tower (null for roots and
    /// for level-1 sentinels). Tenant-invariant per block (see above).
    pub(crate) down: AtomicPtr<SkipNode<K, V, R>>,
    /// The tower's root node (self for roots and sentinels).
    /// Tenant-invariant per block (see above).
    pub(crate) tower_root: AtomicPtr<SkipNode<K, V, R>>,
    /// Root only: number of nodes in the tower's contiguous block —
    /// the capacity handed back to the pool on retirement. Immutable.
    pub(crate) height: usize,
    /// Root only: outstanding references keeping the tower alive.
    pub(crate) remaining: AtomicUsize,
    /// Root only: highest *linked* node of the tower. Written only by
    /// the inserting thread while it holds the construction reference.
    pub(crate) top: AtomicPtr<SkipNode<K, V, R>>,
}

impl<K, V, R: Reclaim> SkipNode<K, V, R> {
    /// Initialize a whole tower of `height` nodes in place on a fresh
    /// or pooled block of `height` consecutive `SkipNode`s, stamping
    /// every element with `birth`.
    ///
    /// Element 0 becomes the root (carrying `key` and `element`,
    /// `remaining = 2`: one reference for the root being linked into
    /// level 1 plus the inserter's construction reference); elements
    /// `1..height` become the upper-level nodes, `down`-chained into the
    /// block. Upper nodes do not store the key themselves —
    /// [`Self::key_ref`] reads it through `tower_root` — so their `key`
    /// field is a placeholder that is never consulted (and owns nothing,
    /// so retirement need not drop it).
    ///
    /// On a pin-free backend a **recycled** block may still be snooped
    /// by stale readers holding the previous tenant's stamp, so the
    /// rewrite follows the seqlock protocol: every element's birth word
    /// gets [`BIRTH_BUILDING`] first, a release fence orders those
    /// stores before the field writes, and a final release store of the
    /// clean `birth` opens the node to readers. Pinned-only fields
    /// (`key`, `element`, `height`) are written plainly — no stale
    /// reader touches them — while fields a stale reader *can* load
    /// (`succ`, `backlink`, `down`, `tower_root`, `remaining`, `top`)
    /// are stored atomically. A `recycled == false` block was never
    /// published, so no stale pointer to it exists and plain
    /// whole-struct writes suffice.
    ///
    /// If the level-1 insertion reports a duplicate the root was never
    /// published; the caller moves `key`/`element` back out and releases
    /// the block directly.
    ///
    /// # Safety
    ///
    /// `block` must be valid for writes of `height` `SkipNode<K, V, R>`s
    /// and must not alias live nodes; every field of every element is
    /// overwritten (a `recycled` block must hold initialized atomics —
    /// the pool guarantees this for every block it hands back).
    /// `height >= 1`.
    pub(crate) unsafe fn init_tower_at(
        block: *mut Self,
        height: usize,
        key: K,
        element: V,
        birth: u64,
        recycled: bool,
    ) where
        R: Publish<K> + Publish<V>,
    {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            debug_assert!(height >= 1);
            if R::PIN_FREE_READS && recycled {
                // Close every element to stale readers before touching
                // any field: a reader validates against the element it
                // *reached*, which may be any of them.
                for i in 0..height {
                    // ord: Relaxed — VBR.birth-building: the fence below orders these stores
                    (*block.add(i))
                        .birth
                        .store(BIRTH_BUILDING | birth, Ordering::Relaxed);
                }
                // ord: Release — VBR.birth-building: seqlock write fence; a reader that
                // observes any field store below also observes the builder bits above
                fence(Ordering::Release);
                // Pinned-only fields: plain writes (stale readers never
                // load them; pinned threads cannot reach a recycled
                // block). The previous tenant's key/element were dropped
                // at retire, so these writes overwrite plain bytes.
                std::ptr::write(std::ptr::addr_of_mut!((*block).key), Bound::Key(key));
                std::ptr::write(std::ptr::addr_of_mut!((*block).element), Some(element));
                std::ptr::write(std::ptr::addr_of_mut!((*block).height), height);
                if let Bound::Key(k) = &(*block).key {
                    // SAFETY: slot rewrite is racy by design; readers
                    // validate via birth before trusting the bytes.
                    <R as Publish<K>>::publish(&(*block).skey, k);
                }
                if let Some(v) = &(*block).element {
                    // SAFETY: as above.
                    <R as Publish<V>>::publish(&(*block).sval, v);
                }
                // Reader-visible atomics, all under the builder bit.
                // ord: Relaxed — VBR.node-reinit: builder bit is set; readers reject the node
                (*block).succ.store(TaggedPtr::null(), Ordering::Relaxed);
                // ord: Relaxed — VBR.node-reinit: same seqlock guard
                (*block)
                    .backlink
                    .store(std::ptr::null_mut(), Ordering::Relaxed);
                // ord: Relaxed — TOWER.layout: tenant-invariant value (same for every tenant)
                (*block).down.store(std::ptr::null_mut(), Ordering::Relaxed);
                // ord: Relaxed — TOWER.layout: tenant-invariant value (same for every tenant)
                (*block).tower_root.store(block, Ordering::Relaxed);
                // ord: Relaxed — VBR.node-reinit: pinned-only counter, builder bit set anyway
                (*block).remaining.store(2, Ordering::Relaxed);
                // ord: Relaxed — TOWER.top: quiescent-only diagnostic field
                (*block).top.store(block, Ordering::Relaxed);
                for i in 1..height {
                    let upper = block.add(i);
                    std::ptr::write(std::ptr::addr_of_mut!((*upper).key), Bound::NegInf);
                    std::ptr::write(std::ptr::addr_of_mut!((*upper).element), None);
                    std::ptr::write(std::ptr::addr_of_mut!((*upper).height), 0);
                    // ord: Relaxed — VBR.node-reinit: builder bit is set; readers reject the node
                    (*upper).succ.store(TaggedPtr::null(), Ordering::Relaxed);
                    // ord: Relaxed — VBR.node-reinit: same seqlock guard
                    (*upper)
                        .backlink
                        .store(std::ptr::null_mut(), Ordering::Relaxed);
                    // ord: Relaxed — TOWER.layout: tenant-invariant value (same for every tenant)
                    (*upper).down.store(block.add(i - 1), Ordering::Relaxed);
                    // ord: Relaxed — TOWER.layout: tenant-invariant value (same for every tenant)
                    (*upper).tower_root.store(block, Ordering::Relaxed);
                    // ord: Relaxed — VBR.node-reinit: pinned-only counter, builder bit set anyway
                    (*upper).remaining.store(0, Ordering::Relaxed);
                    // ord: Relaxed — TOWER.top: quiescent-only diagnostic field
                    (*upper).top.store(std::ptr::null_mut(), Ordering::Relaxed);
                }
                // Open every element: publishes the field writes above to
                // readers that Acquire-load a birth word and see `birth`.
                for i in 0..height {
                    // ord: Release — VBR.birth-finalize: opens the node; pairs with readers' Acquire birth loads
                    (*block.add(i)).birth.store(birth, Ordering::Release);
                }
            } else {
                // Fresh block (or pinned backend): unreachable by anyone,
                // plain initialization; the insertion C&S publishes it.
                block.write(SkipNode {
                    key: Bound::Key(key),
                    element: Some(element),
                    birth: AtomicU64::new(birth),
                    skey: Default::default(),
                    sval: Default::default(),
                    succ: AtomicTaggedPtr::new(TaggedPtr::null()),
                    backlink: AtomicPtr::new(std::ptr::null_mut()),
                    down: AtomicPtr::new(std::ptr::null_mut()),
                    tower_root: AtomicPtr::new(block),
                    height,
                    remaining: AtomicUsize::new(2),
                    top: AtomicPtr::new(block),
                });
                for i in 1..height {
                    block.add(i).write(SkipNode {
                        key: Bound::NegInf,
                        element: None,
                        birth: AtomicU64::new(birth),
                        skey: Default::default(),
                        sval: Default::default(),
                        succ: AtomicTaggedPtr::new(TaggedPtr::null()),
                        backlink: AtomicPtr::new(std::ptr::null_mut()),
                        down: AtomicPtr::new(block.add(i - 1)),
                        tower_root: AtomicPtr::new(block),
                        height: 0,
                        remaining: AtomicUsize::new(0),
                        top: AtomicPtr::new(std::ptr::null_mut()),
                    });
                }
                if R::PIN_FREE_READS {
                    if let Bound::Key(k) = &(*block).key {
                        // SAFETY: the block is unpublished; this is the
                        // first write to a Default slot.
                        <R as Publish<K>>::publish(&(*block).skey, k);
                    }
                    if let Some(v) = &(*block).element {
                        // SAFETY: as above.
                        <R as Publish<V>>::publish(&(*block).sval, v);
                    }
                }
            }
        }
    }

    /// Allocate a head or tail sentinel node for one level.
    ///
    /// Sentinels are their own tower root, are never marked, and their
    /// `remaining` is never released (they are freed by the skip list's
    /// `Drop`, as individual `Box`es — they never touch the pool).
    /// Sentinel birth is 0 forever, so pointers to them carry stamp 0.
    // escape: ESC.sentinel: the returned allocation is owned by the skip
    // list and freed only by its `Drop` — never retired through SMR
    pub(crate) fn alloc_sentinel(key: Bound<K>, down: *mut SkipNode<K, V, R>) -> *mut Self {
        let node = Box::into_raw(Box::new(SkipNode {
            key,
            element: None,
            birth: AtomicU64::new(0),
            skey: Default::default(),
            sval: Default::default(),
            succ: AtomicTaggedPtr::new(TaggedPtr::null()),
            backlink: AtomicPtr::new(std::ptr::null_mut()),
            down: AtomicPtr::new(down),
            tower_root: AtomicPtr::new(std::ptr::null_mut()),
            height: 1,
            remaining: AtomicUsize::new(1),
            top: AtomicPtr::new(std::ptr::null_mut()),
        }));
        // SAFETY: `node` was just allocated above and is not yet shared.
        unsafe {
            // ord: Relaxed — TOWER.layout: sentinel self-init before publication
            (*node).tower_root.store(node, Ordering::Relaxed);
            // ord: Relaxed — TOWER.top: quiescent-only diagnostic field
            (*node).top.store(node, Ordering::Relaxed);
        }
        node
    }

    /// The node one level below in the same tower (null for roots and
    /// level-1 sentinels).
    #[inline]
    // escape: ESC.node-accessor: the down pointer targets the same tower
    // block as `self`, valid while `self` is protected by the caller's guard
    pub(crate) fn down(&self) -> *mut SkipNode<K, V, R> {
        // Relaxed is enough even for pin-free readers: the value is
        // tenant-invariant per block (see the struct docs), and pinned
        // threads inherit the happens-before from the publishing C&S.
        // ord: Relaxed — TOWER.layout: tenant-invariant value (same for every tenant)
        self.down.load(Ordering::Relaxed)
    }

    /// The tower's root node (self for roots and sentinels).
    #[inline]
    // escape: ESC.node-accessor: the root pointer targets the same tower
    // block as `self`, valid while `self` is protected by the caller's guard
    pub(crate) fn root(&self) -> *mut SkipNode<K, V, R> {
        // ord: Relaxed — TOWER.layout: tenant-invariant value (same for every tenant)
        self.tower_root.load(Ordering::Relaxed)
    }

    /// Whether this node's tower is superfluous (root marked).
    ///
    /// # Safety
    ///
    /// The node must be protected by a guard (its tower is then alive,
    /// so `tower_root` is dereferenceable).
    #[inline]
    pub(crate) unsafe fn is_superfluous(&self) -> bool {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        // ord: Relaxed — TOWER.layout: tenant-invariant tower geometry
        unsafe { (*self.root()).is_marked() }
    }
}

impl<K, V, R: Reclaim> LevelNode<K, R> for SkipNode<K, V, R> {
    #[inline]
    fn succ_cell(&self) -> &AtomicTaggedPtr<Self> {
        &self.succ
    }

    #[inline]
    fn backlink_cell(&self) -> &AtomicPtr<Self> {
        &self.backlink
    }

    /// Every element of a tower holds the same birth, so any node of a
    /// tower yields the tower's stamp.
    #[inline]
    fn birth_cell(&self) -> &AtomicU64 {
        &self.birth
    }

    /// The node's key, read through the tower root (every node of a
    /// tower shares the root's key; sentinels and roots are their own
    /// root).
    ///
    /// # Safety
    ///
    /// As for [`LevelNode::key_ref`]: the guard keeps the tower, and
    /// hence `tower_root`, alive.
    #[inline]
    unsafe fn key_ref(&self) -> &Bound<K> {
        // SAFETY: the trait's `# Safety` contract covers the body.
        // ord: Relaxed — TOWER.layout: tenant-invariant tower geometry
        unsafe { &(*self.root()).key }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lf_reclaim::Ebr;
    use std::alloc::{alloc, dealloc, Layout};
    use std::sync::atomic::Ordering;

    /// Allocate and initialize a tower block directly (tests only; the
    /// hot path goes through the node pool).
    unsafe fn tower(height: usize, key: u32, element: u32) -> *mut SkipNode<u32, u32, Ebr> {
        let layout = Layout::array::<SkipNode<u32, u32, Ebr>>(height).unwrap();
        // SAFETY: a fresh allocation of `height` nodes is valid for
        // `init_tower_at`'s writes.
        unsafe {
            let block = alloc(layout) as *mut SkipNode<u32, u32, Ebr>;
            SkipNode::init_tower_at(block, height, key, element, 0, false);
            block
        }
    }

    unsafe fn free_tower(block: *mut SkipNode<u32, u32, Ebr>, height: usize) {
        let layout = Layout::array::<SkipNode<u32, u32, Ebr>>(height).unwrap();
        // SAFETY: `block` came from `tower` with the same height and is
        // freed exactly once.
        unsafe {
            std::ptr::drop_in_place(&mut (*block).key);
            std::ptr::drop_in_place(&mut (*block).element);
            dealloc(block as *mut u8, layout);
        }
    }

    #[test]
    fn root_invariants() {
        unsafe {
            let r = tower(1, 5, 50);
            assert_eq!((*r).root(), r);
            assert_eq!((*r).top.load(Ordering::Relaxed), r);
            assert_eq!((*r).remaining.load(Ordering::Relaxed), 2);
            assert_eq!((*r).height, 1);
            assert!((*r).down().is_null());
            assert_eq!((*r).element, Some(50));
            assert!(!(*r).is_superfluous());
            free_tower(r, 1);
        }
    }

    #[test]
    fn tower_block_is_down_chained_and_shares_key() {
        unsafe {
            let r = tower(3, 5, 50);
            for i in 1..3 {
                let u = r.add(i);
                assert_eq!((*u).down(), r.add(i - 1));
                assert_eq!((*u).root(), r);
                assert_eq!((*u).element, None);
                assert_eq!((*u).key_ref(), &Bound::Key(5));
            }
            assert_eq!((*r).key_ref(), &Bound::Key(5));
            free_tower(r, 3);
        }
    }

    #[test]
    fn sentinel_is_own_root() {
        let s = SkipNode::<u32, u32, Ebr>::alloc_sentinel(Bound::PosInf, std::ptr::null_mut());
        unsafe {
            assert_eq!((*s).root(), s);
            assert!(!(*s).is_superfluous());
            drop(Box::from_raw(s));
        }
    }

    #[test]
    fn pinned_backend_stamps_are_zero() {
        unsafe {
            let r = tower(2, 1, 2);
            assert_eq!(SkipNode::stamp_of(r), 0);
            assert_eq!(SkipNode::clean_ptr(r).stamp(), 0);
            assert!(SkipNode::flagged_ptr(r).is_flagged());
            free_tower(r, 2);
        }
    }

    #[test]
    fn alignment_leaves_tag_bits_free() {
        unsafe {
            let r = tower(4, 1, 2);
            // Every element of the block keeps the low bits free for
            // the mark/flag tags.
            for i in 0..4 {
                assert_eq!(r.add(i) as usize & 0b111, 0);
            }
            free_tower(r, 4);
        }
    }
}
