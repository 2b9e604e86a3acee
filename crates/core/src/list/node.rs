//! List node layout: key, element, successor field, backlink — plus
//! the reclamation-backend extensions (birth word and shadow slots)
//! that make pin-free reads possible under VBR.

use std::sync::atomic::{fence, AtomicPtr, AtomicU64, Ordering};

use lf_reclaim::{Publish, Reclaim, BIRTH_BUILDING};
use lf_tagged::{AtomicTaggedPtr, TaggedPtr};

use super::level::LevelNode;

/// A key extended with the sentinels `-∞` and `+∞` held by the head and
/// tail dummy nodes. The derived ordering places `NegInf < Key(_) <
/// PosInf`, which is exactly the paper's convention.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Bound<K> {
    /// `-∞`: the head node's key.
    NegInf,
    /// A user key.
    Key(K),
    /// `+∞`: the tail node's key.
    PosInf,
}

impl<K> Bound<K> {
    /// The user key, if this is not a sentinel.
    pub fn as_key(&self) -> Option<&K> {
        match self {
            Bound::Key(k) => Some(k),
            _ => None,
        }
    }
}

/// One node of the lock-free linked list.
///
/// Field-for-field the paper's layout (§3.2): `key`, `element`,
/// `backlink`, and the composite successor field `succ = (right, mark,
/// flag)`. The two control bits live in the low bits of the `succ` word
/// (see [`lf_tagged`]); `Node` is 8-byte aligned, so they are always
/// free.
///
/// On top of the paper's fields, the node carries the reclamation
/// backend's per-object state:
///
/// * `birth` — the tenant's birth-epoch word. Pointers to the node
///   embed its low 16 bits as a stamp (`lf_tagged` bits 48..64), and
///   pin-free readers validate snoops against it (DESIGN.md §9.7).
///   Always present (one word) but written once and never loaded under
///   backends without pin-free reads.
/// * `skey` / `sval` — shadow copies of the user key/element in the
///   backend's [`Reclaim::Slot`] storage. Zero-sized for pinned
///   backends; an atomically-copied cell under VBR.
#[repr(align(8))]
pub(crate) struct Node<K, V, R: Reclaim> {
    pub(crate) key: Bound<K>,
    /// `None` only in the head/tail sentinels.
    pub(crate) element: Option<V>,
    /// Birth-epoch word: `BIRTH_BUILDING | epoch` while the tenant is
    /// being (re)initialized, the bare epoch afterwards. Sentinels and
    /// pinned-only backends use 0.
    pub(crate) birth: AtomicU64,
    /// Shadow copy of the user key for pin-free snoops.
    pub(crate) skey: R::Slot<K>,
    /// Shadow copy of the element for pin-free snoops.
    pub(crate) sval: R::Slot<V>,
    /// The composite successor field, the only field updated by C&S.
    pub(crate) succ: AtomicTaggedPtr<Node<K, V, R>>,
    /// Set (to the flagged predecessor) immediately before the node is
    /// marked; never changes afterwards (paper INV 4).
    pub(crate) backlink: AtomicPtr<Node<K, V, R>>,
}

impl<K, V, R: Reclaim> Node<K, V, R> {
    /// Heap-allocate a node with a clean successor pointing at `right`
    /// (sentinels and tests; the hot path uses [`Node::init_at`] on
    /// pool blocks). Sentinels carry birth 0 and empty shadow slots:
    /// readers recognize them by pointer identity and never snoop them.
    pub(crate) fn alloc(key: Bound<K>, element: Option<V>, right: *mut Node<K, V, R>) -> *mut Self {
        Box::into_raw(Box::new(Node {
            key,
            element,
            birth: AtomicU64::new(0),
            skey: Default::default(),
            sval: Default::default(),
            succ: AtomicTaggedPtr::new(TaggedPtr::unmarked(right)),
            backlink: AtomicPtr::new(std::ptr::null_mut()),
        }))
    }

    /// Initialize a node in place on a pool block.
    ///
    /// `recycled` is the provenance bit from `LocalPool::acquire`. A
    /// fresh block (or any block under a backend without pin-free
    /// reads) is unreachable by other threads, so a whole-struct plain
    /// write suffices — the publishing CAS's release edge orders it.
    ///
    /// A **recycled** block under a pin-free backend may still be
    /// snooped by stale optimistic readers holding old stamped
    /// pointers, so it is re-initialized through the seqlock protocol
    /// (DESIGN.md §9.7): set the builder bit in `birth`, release-fence,
    /// store the atomically-read fields atomically (succ, backlink,
    /// shadow slots), plain-write the pinned-only fields (key, element
    /// — the previous tenant's were dropped at retire time), then
    /// release-store the bare birth to open the node for validation.
    ///
    /// # Safety
    ///
    /// `ptr` must be a block of capacity 1 from this list's pool, not
    /// currently published; `recycled` must be the provenance bit
    /// `acquire` returned for it; `birth` must be the allocating
    /// thread's current [`Reclaim::birth_epoch`] (0 for pinned-only
    /// backends). Every field is overwritten.
    pub(crate) unsafe fn init_at(
        ptr: *mut Node<K, V, R>,
        key: Bound<K>,
        element: Option<V>,
        right: *mut Node<K, V, R>,
        birth: u64,
        recycled: bool,
    ) where
        R: Publish<K> + Publish<V>,
    {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            if R::PIN_FREE_READS && recycled {
                // ord: Relaxed — VBR.birth-building: the release fence
                // below orders this store before the field stores.
                (*ptr)
                    .birth
                    .store(BIRTH_BUILDING | birth, Ordering::Relaxed);
                // ord: Release — VBR.birth-building: seqlock write fence
                fence(Ordering::Release);
                std::ptr::write(std::ptr::addr_of_mut!((*ptr).key), key);
                std::ptr::write(std::ptr::addr_of_mut!((*ptr).element), element);
                if let Bound::Key(k) = &(*ptr).key {
                    <R as Publish<K>>::publish(&(*ptr).skey, k);
                }
                if let Some(v) = &(*ptr).element {
                    <R as Publish<V>>::publish(&(*ptr).sval, v);
                }
                // ord: Relaxed — VBR.node-reinit: guarded by the birth
                // seqlock; readers reject the builder bit.
                (*ptr)
                    .succ
                    .store(TaggedPtr::unmarked(right), Ordering::Relaxed);
                // ord: Relaxed — VBR.node-reinit: same seqlock guard.
                (*ptr)
                    .backlink
                    .store(std::ptr::null_mut(), Ordering::Relaxed);
                // ord: Release — VBR.birth-finalize: publishes the new
                // tenant; pairs with readers' Acquire validation loads.
                (*ptr).birth.store(birth, Ordering::Release);
            } else {
                ptr.write(Node {
                    key,
                    element,
                    birth: AtomicU64::new(birth),
                    skey: Default::default(),
                    sval: Default::default(),
                    succ: AtomicTaggedPtr::new(TaggedPtr::unmarked(right)),
                    backlink: AtomicPtr::new(std::ptr::null_mut()),
                });
                if R::PIN_FREE_READS {
                    // Fresh block: no reader can reach it until the
                    // insertion CAS, so plain init then publish works.
                    if let Bound::Key(k) = &(*ptr).key {
                        <R as Publish<K>>::publish(&(*ptr).skey, k);
                    }
                    if let Some(v) = &(*ptr).element {
                        <R as Publish<V>>::publish(&(*ptr).sval, v);
                    }
                }
            }
        }
    }
}

impl<K, V, R: Reclaim> LevelNode<K, R> for Node<K, V, R> {
    #[inline]
    fn succ_cell(&self) -> &AtomicTaggedPtr<Self> {
        &self.succ
    }

    #[inline]
    fn backlink_cell(&self) -> &AtomicPtr<Self> {
        &self.backlink
    }

    #[inline]
    fn birth_cell(&self) -> &AtomicU64 {
        &self.birth
    }

    // SAFETY: a plain field read; the trait's guard contract is more
    // than it needs.
    #[inline]
    unsafe fn key_ref(&self) -> &Bound<K> {
        &self.key
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lf_reclaim::Ebr;

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

    #[test]
    fn node_alloc_is_clean() {
        let n = Node::<u32, (), Ebr>::alloc(Bound::Key(1), Some(()), std::ptr::null_mut());
        unsafe {
            assert!(!(*n).is_marked());
            assert!((*n).succ().is_clean());
            assert!((*n).backlink().is_null());
            assert_eq!(Node::stamp_of(n), 0, "pinned backend stamps are 0");
            drop(Box::from_raw(n));
        }
    }

    #[test]
    fn node_alignment_leaves_tag_bits_free() {
        let n = Node::<u8, u8, Ebr>::alloc(Bound::Key(1), Some(2), std::ptr::null_mut());
        assert_eq!(n as usize & 0b111, 0);
        unsafe { drop(Box::from_raw(n)) };
    }
}
