//! The one block layout of both structures: a tower is one pool block,
//! a root header followed by one 16-byte level cell per level, each
//! cell addressed by level. A list node is a tower of height 1.
//!
//! The paper builds a skip-list tower from full per-level list nodes
//! (Fig. 6), each carrying a key, a `down` pointer and a pointer to the
//! tower's root. Here a level cell holds only what the level's list
//! protocol changes — `succ` and `backlink` — and everything else lives
//! once, in the tower's [`Tower`] header:
//!
//! ```text
//! block ─► ┌─────────────────────────────────────────┐
//!          │ Tower: birth, remaining, height, top,   │  header
//!          │        skey, sval, element, key         │
//!          ├─────────────────────────────────────────┤
//!          │ Cell 1: succ, backlink                  │  level 1 (the root)
//!          ├─────────────────────────────────────────┤
//!          │ Cell 2: succ, backlink                  │  level 2
//!          ├─────────────────────────────────────────┤
//!          │ ⋮                                       │
//!          │ Cell h: succ, backlink                  │  level h
//!          └─────────────────────────────────────────┘
//! ```
//!
//! Every list and skip-list routine knows the level it works on (the
//! list works on level 1 only), so the header of a level-`l` cell is
//! `cell - (l - 1)` cells back, then one header back ([`tower_of`]),
//! and the cell one level down is simply the previous cell ([`down`]).
//! Nothing is loaded to get from a cell to its key: a hop fetches the
//! cell and the header in parallel, then the key's bytes. Head and tail
//! sentinels are two such blocks with one cell per level of their
//! structure ([`Tower::sentinels`]), so every level's sentinel is found
//! the same way.
//!
//! All arithmetic runs on raw pointers derived from the block pointer
//! the allocator returned (level cells are reached by `add`/`sub` on
//! it, and the pointers stored in `succ` are those same raw pointers),
//! so every derived pointer carries the whole block's provenance; no
//! code widens a `&LevelCell` to reach the header.
//!
//! # Tower lifetime
//!
//! A traversal standing on any cell of a tower reaches the header (and
//! the other cells) by arithmetic, so no part of a tower may be freed
//! while any of its cells is still reachable. On the skip list,
//! `remaining` counts one reference per cell linked into a level list
//! plus one *construction reference* held by the inserter while it is
//! still growing the tower. Each physical unlink (the type-4 C&S)
//! releases one reference; when the count hits zero the releasing
//! thread retires the whole block ([`Tower::retire`]). `top` is written
//! only by the single inserting thread and is final once the
//! construction reference is dropped; it is consulted only by quiescent
//! diagnostics (tower census, validation). The list retires a node's
//! block right after its one unlink and reads neither field.
//!
//! # Geometry is tenant-invariant per height bucket
//!
//! The pool buckets blocks by height, so a recycled block always holds
//! a tower of the same height, with its header and level-`l` cell at
//! the same addresses as every earlier tenant's. A stale pin-free
//! reader holding a level-`l` cell pointer therefore computes the
//! address of a header that exists (type-stable storage) and validates
//! the tenant through that header's birth word (DESIGN.md §9.7).
//!
//! # Reclamation-backend fields
//!
//! The header carries the tenant's `birth` word — one per tower, so
//! every cell of a tower yields the same stamp — and the shadow slots
//! (`skey`/`sval`) that pin-free readers snoop. On pinned backends
//! (`R::Slot<T> = ()`) the slots vanish and `birth` is a constant 0.

use std::alloc::Layout;
use std::marker::PhantomData;
use std::mem::size_of;
use std::sync::atomic::{fence, AtomicPtr, AtomicU16, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use lf_reclaim::{Publish, Reclaim, BIRTH_BUILDING};
use lf_tagged::{AtomicTaggedPtr, TaggedPtr};

use crate::list::LevelNode;
use crate::pool::{Block, SharedPool};

/// A key extended with the sentinels `-∞` and `+∞` held by the head and
/// tail blocks. The derived ordering places `NegInf < Key(_) < PosInf`,
/// which is exactly the paper's convention.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub(crate) enum Bound<K> {
    /// `-∞`: the head sentinel's key.
    NegInf,
    /// A user key.
    Key(K),
    /// `+∞`: the tail sentinel's key.
    PosInf,
}

impl<K> Bound<K> {
    /// The user key, if this is not a sentinel.
    pub(crate) fn as_key(&self) -> Option<&K> {
        match self {
            Bound::Key(k) => Some(k),
            _ => None,
        }
    }
}

/// One level of a tower: the paper's per-level list fields and nothing
/// else. A cell's key, element and birth live in its tower's header.
#[repr(C)]
pub(crate) struct LevelCell<K, V, R: Reclaim> {
    /// The composite successor field within this cell's level list.
    pub(crate) succ: AtomicTaggedPtr<LevelCell<K, V, R>>,
    /// Set before marking; points at the flagged predecessor (INV 4).
    pub(crate) backlink: AtomicPtr<LevelCell<K, V, R>>,
    _tower: PhantomData<Tower<K, V, R>>,
}

/// A tower's root header: the fields of the paper's root node that are
/// not per-level, followed in memory by the tower's level cells.
///
/// `repr(C)` keeps `key` last, right before the level-1 cell, so a
/// level-1 hop usually finds the key on the line it already fetched.
#[repr(C)]
pub(crate) struct Tower<K, V, R: Reclaim> {
    /// Birth epoch of this block's tenant, low 16 bits mirrored into
    /// every published pointer to any of its cells; [`BIRTH_BUILDING`]
    /// is set while a re-initializer is rewriting the block. Constant 0
    /// on pinned backends and on sentinels.
    pub(crate) birth: AtomicU64,
    /// Outstanding references keeping a skip-list tower alive.
    pub(crate) remaining: AtomicU32,
    /// Number of level cells in the block — the capacity handed back to
    /// the pool on retirement. Immutable per tenant.
    pub(crate) height: u16,
    /// Highest *linked* level of a skip-list tower. Written only by the
    /// inserting thread while it holds the construction reference.
    pub(crate) top: AtomicU16,
    /// Shadow of `key` for pin-free readers.
    pub(crate) skey: R::Slot<K>,
    /// Shadow of `element` for pin-free readers.
    pub(crate) sval: R::Slot<V>,
    /// `None` only in the head and tail sentinels.
    pub(crate) element: Option<V>,
    pub(crate) key: Bound<K>,
}

impl<K, V, R: Reclaim> LevelCell<K, V, R> {
    /// A cell whose successor is `right` (null: unlinked).
    fn linked_to(right: *mut Self) -> Self {
        LevelCell {
            succ: AtomicTaggedPtr::new(TaggedPtr::unmarked(right)),
            backlink: AtomicPtr::new(std::ptr::null_mut()),
            _tower: PhantomData,
        }
    }
}

/// The level-`level` cell of the block headed by `tower`.
///
/// # Safety
///
/// `tower` heads a block of at least `level` cells (`level >= 1`).
#[inline]
pub(crate) unsafe fn cell_at<K, V, R: Reclaim>(
    tower: *mut Tower<K, V, R>,
    level: usize,
) -> *mut LevelCell<K, V, R> {
    // SAFETY: the cells start right after the header (the header's size
    // is a multiple of its alignment, which the cell's divides), and
    // the block holds `level` of them.
    unsafe { tower.add(1).cast::<LevelCell<K, V, R>>().add(level - 1) }
}

/// The header of the tower whose level-`level` cell is `cell`.
///
/// # Safety
///
/// `cell` is the level-`level` cell of a block (a user tower or a
/// sentinel block), reached through pointers derived from the block's
/// own allocation.
#[inline]
pub(crate) unsafe fn tower_of<K, V, R: Reclaim>(
    cell: *mut LevelCell<K, V, R>,
    level: usize,
) -> *mut Tower<K, V, R> {
    // SAFETY: the inverse of `cell_at`, within the same block.
    unsafe { cell.sub(level - 1).cast::<Tower<K, V, R>>().sub(1) }
}

/// The cell one level below `cell` in the same tower.
///
/// # Safety
///
/// `cell` is a cell of level 2 or higher of some block.
#[inline]
pub(crate) unsafe fn down<K, V, R: Reclaim>(
    cell: *mut LevelCell<K, V, R>,
) -> *mut LevelCell<K, V, R> {
    // SAFETY: the level below is the previous cell of the same block.
    unsafe { cell.sub(1) }
}

impl<K, V, R: Reclaim> Block for Tower<K, V, R> {
    /// A header followed by `cap` level cells.
    fn layout(cap: usize) -> Layout {
        let (layout, at) = Layout::new::<Self>()
            .extend(Layout::array::<LevelCell<K, V, R>>(cap).expect("tower layout overflow"))
            .expect("tower layout overflow");
        // `cell_at`/`tower_of` rely on this: the header's alignment (its
        // `AtomicU64`) covers the cell's, so no padding precedes cell 1.
        assert_eq!(at, size_of::<Self>(), "cells follow the header directly");
        layout.pad_to_align()
    }
}

impl<K, V, R: Reclaim> Tower<K, V, R> {
    /// Initialize a whole tower of `height` levels in place on a fresh
    /// or pooled block, stamping it with `birth` — the one
    /// re-initialization of both structures (a list node is
    /// `height == 1`).
    ///
    /// The header gets `key` and `element`, `remaining = 2` (one
    /// reference for the level-1 cell being linked plus the inserter's
    /// construction reference) and `top = 1`; every cell starts
    /// unlinked.
    ///
    /// On a pin-free backend a **recycled** block may still be snooped
    /// by stale readers holding the previous tenant's stamp, so the
    /// rewrite follows the seqlock protocol: the birth word gets
    /// [`BIRTH_BUILDING`] first, a release fence orders that store
    /// before the field writes, and a final release store of the clean
    /// `birth` opens the block to readers. Pinned-only fields (`key`,
    /// `element`, `height`) are written plainly — no stale reader
    /// touches them — while fields a stale reader *can* load (`succ`,
    /// `backlink`, `remaining`, `top`) are stored atomically. A
    /// `recycled == false` block was never published, so no stale
    /// pointer into it exists and plain writes suffice.
    ///
    /// If the level-1 insertion reports a duplicate the tower was never
    /// published; the caller takes the pair back with
    /// [`take_pair`](Self::take_pair) and releases the block directly.
    ///
    /// # Safety
    ///
    /// `block` must be valid for writes of [`Block::layout`]`(height)`
    /// bytes and must not alias live towers; every field is overwritten
    /// (a `recycled` block must hold initialized atomics — the pool
    /// guarantees this for every block it hands back). `1 <= height <=
    /// u16::MAX`.
    pub(crate) unsafe fn init_at(
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
                // Close the block to stale readers before touching any
                // field: a reader validates every cell it reached
                // against this one word.
                // ord: Relaxed — VBR.birth-building: the fence below orders this store
                (*block)
                    .birth
                    .store(BIRTH_BUILDING | birth, Ordering::Relaxed);
                // ord: Release — VBR.birth-building: seqlock write fence; a reader that
                // observes any field store below also observes the builder bit above
                fence(Ordering::Release);
                // Pinned-only fields: plain writes (stale readers never
                // load them; pinned threads cannot reach a recycled
                // block). The previous tenant's key/element were dropped
                // at retire, so these writes overwrite plain bytes.
                std::ptr::write(std::ptr::addr_of_mut!((*block).key), Bound::Key(key));
                std::ptr::write(std::ptr::addr_of_mut!((*block).element), Some(element));
                std::ptr::write(std::ptr::addr_of_mut!((*block).height), height as u16);
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
                // ord: Relaxed — VBR.node-reinit: pinned-only counter, builder bit set anyway
                (*block).remaining.store(2, Ordering::Relaxed);
                // ord: Relaxed — TOWER.top: quiescent-only diagnostic field
                (*block).top.store(1, Ordering::Relaxed);
                for level in 1..=height {
                    let cell = cell_at(block, level);
                    // ord: Relaxed — VBR.node-reinit: builder bit is set; readers reject the tower
                    (*cell).succ.store(TaggedPtr::null(), Ordering::Relaxed);
                    // ord: Relaxed — VBR.node-reinit: same seqlock guard
                    (*cell)
                        .backlink
                        .store(std::ptr::null_mut(), Ordering::Relaxed);
                }
                // Open the block: publishes the field writes above to
                // readers that Acquire-load the birth word and see `birth`.
                // ord: Release — VBR.birth-finalize: opens the tower; pairs with readers' Acquire birth loads
                (*block).birth.store(birth, Ordering::Release);
            } else {
                // Fresh block (or pinned backend): unreachable by anyone,
                // plain initialization; the insertion C&S publishes it.
                let unlinked = std::ptr::null_mut();
                Self::write_at(
                    block,
                    height,
                    Bound::Key(key),
                    Some(element),
                    birth,
                    unlinked,
                );
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

    /// Plain-write a header and `height` cells, with `remaining = 2`
    /// and `top = 1` (a new tower's; sentinel blocks never consult
    /// either). Each cell's successor is the same level's cell of
    /// `right`, or null when `right` is.
    ///
    /// # Safety
    ///
    /// `block` is valid for writes of [`Block::layout`]`(height)` bytes
    /// and unreachable by any other thread; a non-null `right` heads a
    /// block of at least `height` cells.
    unsafe fn write_at(
        block: *mut Self,
        height: usize,
        key: Bound<K>,
        element: Option<V>,
        birth: u64,
        right: *mut Self,
    ) {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            block.write(Tower {
                birth: AtomicU64::new(birth),
                remaining: AtomicU32::new(2),
                height: height as u16,
                top: AtomicU16::new(1),
                skey: Default::default(),
                sval: Default::default(),
                element,
                key,
            });
            for level in 1..=height {
                let succ = if right.is_null() {
                    std::ptr::null_mut()
                } else {
                    cell_at(right, level)
                };
                cell_at(block, level).write(LevelCell::linked_to(succ));
            }
        }
    }

    /// Move the key and element back out of a tower whose insertion
    /// lost at level 1; the caller then releases the block to its pool.
    ///
    /// # Safety
    ///
    /// `block` was initialized by [`init_at`](Self::init_at) and never
    /// published; its key and element are not read again.
    pub(crate) unsafe fn take_pair(block: *mut Self) -> (K, V) {
        // SAFETY: the fn's `# Safety` contract: both fields are live and
        // read exactly once.
        let (key, element) = unsafe {
            (
                std::ptr::read(std::ptr::addr_of!((*block).key)),
                std::ptr::read(std::ptr::addr_of!((*block).element)),
            )
        };
        match (key, element) {
            (Bound::Key(k), Some(v)) => (k, v),
            _ => unreachable!("a user tower carries key and element"),
        }
    }

    /// Drop a user tower's key and element and hand its block to
    /// `pool`, bucketed by its height: the body of every retirement,
    /// and what the structures' `Drop` does to each still-linked block.
    ///
    /// # Safety
    ///
    /// `block` is a user tower no thread can reach any more (a grace
    /// period elapsed since its last cell was unlinked, or the caller
    /// has unique access); it came from `pool` and is recycled once.
    pub(crate) unsafe fn recycle(block: *mut Self, pool: &SharedPool<Self>) {
        // SAFETY: the fn's `# Safety` contract. Key and element are
        // dropped here; the other fields have no drop glue, so the block
        // may be recycled. (Stale pin-free readers may still snoop the
        // shadow slots afterwards — sound because pin-free payloads are
        // `Pod` and the block stays allocated in the pool.)
        unsafe {
            let cap = usize::from((*block).height);
            std::ptr::drop_in_place(std::ptr::addr_of_mut!((*block).key));
            std::ptr::drop_in_place(std::ptr::addr_of_mut!((*block).element));
            pool.recycle(block as usize, cap);
        }
    }

    /// Queue `block` for [`recycle`](Self::recycle) into `pool` once the
    /// backend's grace period drains — the one retirement of both
    /// structures: the list's after a node's unlink, the skip list's
    /// when a tower's last reference is released.
    ///
    /// # Safety
    ///
    /// `block` is protected by `guard` and none of its cells is linked
    /// any more (the call site names the unlink that made it so); each
    /// tenant is retired once.
    pub(crate) unsafe fn retire(
        block: *mut Self,
        pool: &Arc<SharedPool<Self>>,
        guard: &R::Guard<'_>,
    ) where
        K: 'static,
        V: 'static,
    {
        let pool = Arc::clone(pool);
        let addr = block as usize;
        let destroy = move || {
            // SAFETY: grace elapsed, so no pinned thread can reach any
            // cell of the block; `retire` ran once for this tenant.
            unsafe { Self::recycle(addr as *mut Self, &pool) }
        };
        // SAFETY: the closure touches the block only after grace
        // elapses, when it is unreachable to pinned threads.
        // unlink: UNLINK.tower-del: every caller hands over a block none of
        // whose cells is linked, and its own call site names that unlink
        unsafe { R::defer(guard, destroy) };
    }

    /// Allocate a head (`NegInf`) or tail (`PosInf`) sentinel block of
    /// `levels` cells, each linked to the same level's cell of `right`
    /// (null: unlinked).
    ///
    /// Sentinels are never marked and never retired: the structure's
    /// `Drop` frees both blocks with [`free_sentinel`](Self::free_sentinel).
    /// Their birth is 0 forever, so pointers to them carry stamp 0.
    ///
    /// # Safety
    ///
    /// A non-null `right` heads a block of at least `levels` cells.
    pub(crate) unsafe fn sentinel_block(
        key: Bound<K>,
        levels: usize,
        right: *mut Self,
    ) -> *mut Self {
        let layout = Self::layout(levels);
        // SAFETY: the layout has non-zero size (it holds a header).
        let block = unsafe { std::alloc::alloc(layout) }.cast::<Self>();
        if block.is_null() {
            std::alloc::handle_alloc_error(layout);
        }
        // SAFETY: a fresh, unshared allocation of the block layout; the
        // fn's `# Safety` contract covers `right`.
        unsafe { Self::write_at(block, levels, key, None, 0, right) };
        block
    }

    /// The head and tail sentinel blocks of an empty structure of
    /// `levels` levels (1 for the list), each level's head cell linked
    /// to its tail cell when written: nothing is shared yet, so no
    /// atomic store is needed, and the unmarked pointer's stamp (0) is
    /// already the tail's.
    pub(crate) fn sentinels(levels: usize) -> (*mut Self, *mut Self) {
        // SAFETY: `tail` holds `levels` cells.
        unsafe {
            let tail = Self::sentinel_block(Bound::PosInf, levels, std::ptr::null_mut());
            (Self::sentinel_block(Bound::NegInf, levels, tail), tail)
        }
    }

    /// Free a sentinel block from [`sentinel_block`](Self::sentinel_block).
    ///
    /// # Safety
    ///
    /// `block` came from `sentinel_block(_, levels)` and is freed once,
    /// with no operation running on its structure.
    pub(crate) unsafe fn free_sentinel(block: *mut Self, levels: usize) {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            std::ptr::drop_in_place(std::ptr::addr_of_mut!((*block).key));
            std::ptr::drop_in_place(std::ptr::addr_of_mut!((*block).element));
            std::alloc::dealloc(block.cast(), Self::layout(levels));
        }
    }
}

impl<K, V, R: Reclaim> LevelNode for LevelCell<K, V, R> {
    #[inline]
    fn succ_cell(&self) -> &AtomicTaggedPtr<Self> {
        &self.succ
    }

    #[inline]
    fn backlink_cell(&self) -> &AtomicPtr<Self> {
        &self.backlink
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::LevelKeys;
    use crate::FrList;
    use lf_reclaim::Ebr;
    use lf_vbr::Vbr;
    use std::alloc::{alloc, dealloc};
    use std::ptr;

    type T32 = Tower<u32, u32, Ebr>;

    /// Allocate and initialize a tower block directly (tests only; the
    /// hot path goes through the node pool).
    unsafe fn tower(height: usize, key: u32, element: u32) -> *mut T32 {
        // SAFETY: a fresh allocation of the block layout is valid for
        // `init_at`'s writes.
        unsafe {
            let block = alloc(T32::layout(height)).cast::<T32>();
            Tower::init_at(block, height, key, element, 0, false);
            block
        }
    }

    unsafe fn free_tower(block: *mut T32, height: usize) {
        // SAFETY: `block` came from `tower` with the same height and is
        // freed exactly once.
        unsafe {
            std::ptr::drop_in_place(&mut (*block).key);
            std::ptr::drop_in_place(&mut (*block).element);
            dealloc(block.cast(), T32::layout(height));
        }
    }

    #[test]
    fn bound_ordering_matches_paper() {
        assert!(Bound::NegInf < Bound::Key(0));
        assert!(Bound::Key(i64::MAX) < Bound::PosInf);
        assert!(Bound::<i64>::NegInf < Bound::PosInf);
        assert_eq!(Bound::Key(5), Bound::Key(5));
        assert!(Bound::Key(3) < Bound::Key(4));
    }

    #[test]
    fn bound_as_key() {
        assert_eq!(Bound::Key(7).as_key(), Some(&7));
        assert_eq!(Bound::<u32>::NegInf.as_key(), None);
        assert_eq!(Bound::<u32>::PosInf.as_key(), None);
    }

    /// A list node is a height-1 tower: one unlinked cell, stamp 0
    /// under a pinned backend.
    #[test]
    fn node_alloc_is_clean() {
        unsafe {
            let t = tower(1, 1, 10);
            let n = cell_at(t, 1);
            assert!(!(*n).is_marked());
            assert!((*n).succ().is_clean());
            assert!((*n).backlink().is_null());
            let list = FrList::<u32, u32, Ebr>::new();
            assert_eq!(list.stamp_of(n), 0, "pinned backend stamps are 0");
            assert_eq!(list.key_ref(n), &Bound::Key(1));
            free_tower(t, 1);
        }
    }

    #[test]
    fn node_alignment_leaves_tag_bits_free() {
        unsafe {
            let block = Tower::<u8, u8, Ebr>::sentinel_block(Bound::Key(1), 1, ptr::null_mut());
            assert_eq!(cell_at(block, 1) as usize & 0b111, 0);
            Tower::free_sentinel(block, 1);
        }
    }

    #[test]
    fn root_invariants() {
        unsafe {
            let t = tower(1, 5, 50);
            let root = cell_at(t, 1);
            assert_eq!(tower_of(root, 1), t);
            assert_eq!((*t).top.load(Ordering::Relaxed), 1);
            assert_eq!((*t).remaining.load(Ordering::Relaxed), 2);
            assert_eq!((*t).height, 1);
            assert_eq!((*t).element, Some(50));
            assert_eq!((*t).key, Bound::Key(5));
            assert!(!(*root).is_marked());
            assert!((*root).backlink().is_null());
            free_tower(t, 1);
        }
    }

    /// The pinned sizes below are what the layout is for: a header of at
    /// most 64 bytes plus 16 per level, where the per-level node layout
    /// this replaced cost `size_of::<node>() * h` (112 B per level for
    /// `Vec<u8>` keys and values under EBR). A list node is the `h = 1`
    /// block, whose `remaining`/`height`/`top` word the list never
    /// reads.
    #[test]
    fn header_and_cell_sizes_are_pinned() {
        fn block<K, V, R: Reclaim>(h: usize) -> usize {
            Tower::<K, V, R>::layout(h).size()
        }
        assert_eq!(size_of::<LevelCell<u64, u64, Ebr>>(), 16);
        assert_eq!(size_of::<LevelCell<Vec<u8>, Vec<u8>, Ebr>>(), 16);
        assert_eq!(size_of::<LevelCell<u64, u64, Vbr>>(), 16);
        assert_eq!(size_of::<Tower<u64, u64, Ebr>>(), 48);
        assert_eq!(size_of::<Tower<Vec<u8>, Vec<u8>, Ebr>>(), 64);
        assert_eq!(size_of::<Tower<u64, u64, Vbr>>(), 64);
        for h in 1..=31 {
            assert_eq!(block::<u64, u64, Ebr>(h), 48 + 16 * h, "h={h}");
            assert_eq!(block::<Vec<u8>, Vec<u8>, Ebr>(h), 64 + 16 * h, "h={h}");
            assert!(block::<Vec<u8>, Vec<u8>, Ebr>(h) <= 64 + 16 * h);
            assert_eq!(block::<u64, u64, Vbr>(h), 64 + 16 * h, "h={h}");
        }
        // FrList blocks: every list node is a height-1 tower.
        fn list_block<K, V, R: Reclaim>(list: &FrList<K, V, R>) -> usize {
            // SAFETY: the head sentinel lives as long as the list.
            let head = unsafe { tower_of(list.head, 1) };
            // SAFETY: as above.
            assert_eq!(unsafe { (*head).height }, 1, "list blocks hold one cell");
            block::<K, V, R>(1)
        }
        assert_eq!(list_block(&FrList::<u64, u64, Ebr>::new()), 64);
        assert_eq!(list_block(&FrList::<Vec<u8>, Vec<u8>, Ebr>::new()), 80);
        assert_eq!(list_block(&FrList::<u64, u64, Vbr>::with_backend()), 80);
    }

    /// Round trips for every level of every height, for user towers, the
    /// skip list's sentinel blocks, and a list's (and its sibling's)
    /// height-1 sentinels and nodes: cell → header → cell, and cell →
    /// down is the cell one level lower. All pointers derive from the
    /// block's own allocation.
    #[test]
    fn cell_header_round_trips() {
        fn check<K, V, R: Reclaim>(t: *mut Tower<K, V, R>, h: usize) {
            unsafe {
                for level in 1..=h {
                    let c = cell_at(t, level);
                    assert_eq!(c as usize % std::mem::align_of::<LevelCell<K, V, R>>(), 0);
                    assert_eq!(c as usize & 0b111, 0, "tag bits must stay free");
                    assert_eq!(tower_of(c, level), t, "level {level} of {h}");
                    assert_eq!(cell_at(tower_of(c, level), level), c);
                    if level > 1 {
                        assert_eq!(down(c), cell_at(t, level - 1));
                    }
                }
                assert_eq!(
                    cell_at(t, h) as usize + size_of::<LevelCell<K, V, R>>() - t as usize,
                    Tower::<K, V, R>::layout(h).size(),
                    "the top cell ends the block"
                );
            }
        }
        for h in 1..=31 {
            unsafe {
                let t = tower(h, 1, 2);
                check(t, h);
                free_tower(t, h);
            }
        }
        for max_level in [2, 4, 32] {
            let sl = crate::SkipList::<u32, u32>::with_max_level(max_level);
            // SAFETY: level-1 cells of the sentinel blocks.
            let (head, tail) = unsafe { (tower_of(sl.head(1), 1), tower_of(sl.tail(1), 1)) };
            check(head, max_level);
            check(tail, max_level);
            unsafe {
                for level in 1..=max_level {
                    assert_eq!(sl.head(level), cell_at(head, level));
                    assert_eq!(sl.tail(level), cell_at(tail, level));
                    assert_eq!((*sl.head(level)).right(), sl.tail(level));
                    assert!((*sl.tail(level)).right().is_null());
                }
            }
        }
        for key in [Bound::NegInf, Bound::PosInf] {
            // SAFETY: unlinked; freed once, never shared.
            unsafe {
                let block =
                    Tower::<Vec<u8>, Vec<u8>, Vbr>::sentinel_block(key, 32, ptr::null_mut());
                check(block, 32);
                Tower::free_sentinel(block, 32);
            }
        }
        let list = FrList::<u32, u32, Ebr>::new();
        let sibling = list.new_sibling();
        let h = list.handle();
        for k in 0..8 {
            h.insert_in(&sibling, k, k).unwrap();
        }
        for l in [&list, &sibling] {
            unsafe {
                check(tower_of(l.head, 1), 1);
                check(tower_of(l.tail, 1), 1);
                assert!((*l.tail).right().is_null());
                let mut cur = (*l.head).right();
                while cur != l.tail {
                    let t = tower_of(cur, 1);
                    assert_eq!((*t).height, 1);
                    check(t, 1);
                    cur = (*cur).right();
                }
            }
        }
        assert_eq!(sibling.len(), 8);
    }

    #[test]
    fn tower_block_is_down_chained_and_shares_key() {
        unsafe {
            let t = tower(3, 5, 50);
            for level in 1..=3 {
                let c = cell_at(t, level);
                if level > 1 {
                    assert_eq!(down(c), cell_at(t, level - 1));
                }
                assert_eq!(tower_of(c, level), t);
                assert_eq!((*tower_of(c, level)).key, Bound::Key(5));
                assert!((*c).succ().is_clean());
            }
            free_tower(t, 3);
        }
    }

    #[test]
    fn sentinel_is_own_root() {
        let (head, tail) = T32::sentinels(4);
        unsafe {
            for level in 1..=4 {
                assert_eq!(tower_of(cell_at(head, level), level), head);
                assert_eq!(tower_of(cell_at(tail, level), level), tail);
                assert_eq!((*cell_at(head, level)).right(), cell_at(tail, level));
            }
            assert_eq!((*head).key, Bound::NegInf);
            assert_eq!((*tail).key, Bound::PosInf);
            assert_eq!((*head).birth.load(Ordering::Relaxed), 0);
            assert!(!(*cell_at(head, 1)).is_marked());
            assert!(!(*cell_at(tail, 1)).is_marked());
            T32::free_sentinel(head, 4);
            T32::free_sentinel(tail, 4);
        }
    }

    #[test]
    fn pinned_backend_stamps_are_zero() {
        let sl = crate::SkipList::<u32, u32>::new();
        unsafe {
            let t = tower(2, 1, 2);
            let level = sl.at(2);
            let c = cell_at(t, 2);
            assert_eq!(level.stamp_of(c), 0);
            assert_eq!(level.clean_ptr(c).stamp(), 0);
            assert!(level.flagged_ptr(c).is_flagged());
            free_tower(t, 2);
        }
    }

    #[test]
    fn alignment_leaves_tag_bits_free() {
        unsafe {
            let t = tower(4, 1, 2);
            // Every cell of the block keeps the low bits free for the
            // mark/flag tags.
            for level in 1..=4 {
                assert_eq!(cell_at(t, level) as usize & 0b111, 0);
            }
            free_tower(t, 4);
        }
    }
}
