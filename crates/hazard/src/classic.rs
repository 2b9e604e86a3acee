//! Classic per-pointer hazard domain (M. Michael, PODC 2002).
//!
//! See the crate docs for the protect/validate/retire protocol; the
//! Michael-list baseline in `lf-baselines` is its consumer.
//!
//! Each registered thread owns one slot of [`HAZARDS_PER_THREAD`]
//! published addresses in a lock-free singly linked registry:
//! registering recycles a released slot or pushes a fresh one, and scans
//! walk every slot ever allocated. Invariants:
//!
//! * slot nodes are never freed while the registry lives — scans may
//!   dereference any pointer they traverse;
//! * a released slot's hazards must be cleared before `in_use` is, because
//!   scans visit released slots too (they may already belong to a new
//!   owner).

use std::cell::RefCell;
use std::collections::HashSet;
use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Hazard slots per registered thread (the list algorithms need three:
/// predecessor, current, and one spare for rotation).
pub const HAZARDS_PER_THREAD: usize = 4;

/// Retired-node count that triggers a scan.
const SCAN_THRESHOLD: usize = 64;

/// Per-thread payload: the published hazard addresses (0 = empty).
type HazardSlots = [AtomicUsize; HAZARDS_PER_THREAD];

/// One registered thread's slot: its published hazards plus the
/// registry linkage.
struct SlotNode {
    hazards: HazardSlots,
    in_use: AtomicBool,
    next: AtomicPtr<SlotNode>,
}

/// Lock-free grow-only registry of [`SlotNode`]s with slot recycling.
struct SlotList {
    head: AtomicPtr<SlotNode>,
}

impl SlotList {
    fn new() -> Self {
        SlotList {
            head: AtomicPtr::new(std::ptr::null_mut()),
        }
    }

    /// Claim a slot for the calling thread: recycle a released one when
    /// possible, otherwise push a fresh node (lock-free).
    ///
    /// The returned pointer stays valid until the registry drops; the
    /// caller releases it with [`SlotList::release`].
    // escape: ESC.hp-slots: slot nodes are never freed while the registry
    // lives (module invariant), so the returned pointer cannot dangle
    fn register(&self) -> *mut SlotNode {
        let mut cur = self.head.load(Ordering::SeqCst);
        while !cur.is_null() {
            // SAFETY: slot nodes are never freed while the registry
            // lives (module invariant).
            // validate: VAL.hp-slots: registry nodes are append-only and
            // never freed while the registry lives — no re-check needed
            let slot = unsafe { &*cur };
            if !slot.in_use.load(Ordering::SeqCst)
                && slot
                    .in_use
                    .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
            {
                return cur;
            }
            cur = slot.next.load(Ordering::SeqCst);
        }
        let slot = Box::into_raw(Box::new(SlotNode {
            hazards: Default::default(),
            in_use: AtomicBool::new(true),
            next: AtomicPtr::new(std::ptr::null_mut()),
        }));
        let mut head = self.head.load(Ordering::SeqCst);
        loop {
            // SAFETY: `slot` was just leaked from a live Box.
            unsafe { &*slot }.next.store(head, Ordering::SeqCst);
            match self
                .head
                .compare_exchange(head, slot, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => break,
                Err(h) => head = h,
            }
        }
        slot
    }

    /// Return a slot to the free pool. The caller must have cleared its
    /// hazards first (module invariant).
    ///
    /// # Safety
    ///
    /// `slot` must have been returned by [`SlotList::register`] on this
    /// registry and not yet released.
    unsafe fn release(&self, slot: *mut SlotNode) {
        // SAFETY: the caller's contract — a live registration on this
        // registry, whose nodes outlive it.
        unsafe { &*slot }.in_use.store(false, Ordering::SeqCst);
    }

    /// Visit every slot's hazards, released ones included (a recycled
    /// slot may already hold a new owner's hazards, so whatever is read
    /// counts as live).
    fn for_each(&self, mut f: impl FnMut(&HazardSlots)) {
        let mut cur = self.head.load(Ordering::SeqCst);
        while !cur.is_null() {
            // SAFETY: slot nodes are never freed while the registry
            // lives (module invariant).
            // validate: VAL.hp-slots: registry nodes are append-only and
            // never freed while the registry lives — no re-check needed
            let slot = unsafe { &*cur };
            f(&slot.hazards);
            cur = slot.next.load(Ordering::SeqCst);
        }
    }
}

impl Drop for SlotList {
    fn drop(&mut self) {
        let mut cur = *self.head.get_mut();
        while !cur.is_null() {
            // SAFETY: unique access; each node was leaked from a Box in
            // `register` and is freed exactly once here.
            let mut slot = unsafe { Box::from_raw(cur) };
            cur = *slot.next.get_mut();
        }
    }
}

struct Retired {
    addr: usize,
    drop_fn: unsafe fn(usize),
}

/// # Safety
///
/// `addr` must be a `Box<T>`-allocated pointer retired exactly once.
unsafe fn drop_box<T>(addr: usize) {
    // SAFETY: the caller's contract above.
    drop(unsafe { Box::from_raw(addr as *mut T) });
}

struct DomainInner {
    registry: SlotList,
    /// Garbage abandoned by deregistered threads (rare path).
    orphans: Mutex<Vec<Retired>>,
}

impl DomainInner {
    /// All currently published hazard addresses.
    fn hazard_set(&self) -> HashSet<usize> {
        let mut set = HashSet::new();
        // Scan every slot, even released ones: a slot being recycled
        // may already hold a new owner's hazards.
        self.registry.for_each(|hazards| {
            for h in hazards {
                let a = h.load(Ordering::SeqCst);
                if a != 0 {
                    set.insert(a);
                }
            }
        });
        set
    }

    /// Free every entry of `retired` not in the hazard set; keep the
    /// protected remainder.
    fn scan(&self, retired: &mut Vec<Retired>) {
        let hazards = self.hazard_set();
        let mut kept = Vec::new();
        for r in retired.drain(..) {
            if hazards.contains(&r.addr) {
                kept.push(r);
            } else {
                // SAFETY: the node was unlinked before `retire` and no
                // hazard protects it, so no thread can still reach it.
                unsafe { (r.drop_fn)(r.addr) };
            }
        }
        *retired = kept;

        // Opportunistically drain old orphans too.
        let mut orphans = self.orphans.lock().unwrap();
        let mut kept = Vec::new();
        for r in orphans.drain(..) {
            if hazards.contains(&r.addr) {
                kept.push(r);
            } else {
                // SAFETY: as above — unreachable and unprotected.
                unsafe { (r.drop_fn)(r.addr) };
            }
        }
        *orphans = kept;
    }
}

impl Drop for DomainInner {
    fn drop(&mut self) {
        // No handles remain: every retired node is free-able (the
        // registry itself is freed by `SlotList::drop`).
        for r in self.orphans.get_mut().unwrap().drain(..) {
            // SAFETY: no handles remain (they hold `Arc`s to the
            // domain), so every retired node is unreachable.
            unsafe { (r.drop_fn)(r.addr) };
        }
    }
}

/// A hazard-pointer reclamation domain (one per data structure).
pub struct Domain {
    inner: Arc<DomainInner>,
}

impl fmt::Debug for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("hazard::Domain")
    }
}

impl Default for Domain {
    fn default() -> Self {
        Self::new()
    }
}

impl Domain {
    /// Create an empty domain.
    pub fn new() -> Self {
        Domain {
            inner: Arc::new(DomainInner {
                registry: SlotList::new(),
                orphans: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Register the calling thread, recycling a released slot when one
    /// exists (lock-free).
    pub fn register(&self) -> HazardHandle {
        let slot = self.inner.registry.register();
        HazardHandle::new(self.inner.clone(), slot)
    }
}

/// A thread's hazard slots plus its retired-node batch. Not `Send`.
pub struct HazardHandle {
    inner: Arc<DomainInner>,
    slot: *mut SlotNode,
    retired: RefCell<Vec<Retired>>,
    _not_send: PhantomData<*mut ()>,
}

impl fmt::Debug for HazardHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HazardHandle")
            .field("retired", &self.retired.borrow().len())
            .finish()
    }
}

impl HazardHandle {
    fn new(inner: Arc<DomainInner>, slot: *mut SlotNode) -> Self {
        HazardHandle {
            inner,
            slot,
            retired: RefCell::new(Vec::new()),
            _not_send: PhantomData,
        }
    }

    fn hazards(&self) -> &HazardSlots {
        // SAFETY: the slot outlives the handle (slots are freed only by
        // the registry's drop, and we hold an `Arc` to the domain).
        &unsafe { &*self.slot }.hazards
    }

    /// Publish `src`'s current pointee in hazard slot `index` and
    /// validate it: loops until a published value survives a re-read of
    /// `src`, then returns it. The returned pointer stays
    /// dereferenceable until [`clear`](Self::clear) (or re-`protect`) of
    /// that slot — provided the structure only frees nodes through
    /// [`retire`](Self::retire) *after* unlinking them.
    ///
    /// # Panics
    ///
    /// Panics if `index >= HAZARDS_PER_THREAD`.
    // escape: ESC.hp-protect: the published hazard slot (not a lexical
    // guard) protects the returned pointer until clear/re-protect
    pub fn protect<T>(&self, index: usize, src: &AtomicPtr<T>) -> *mut T {
        loop {
            let p = src.load(Ordering::SeqCst);
            self.hazards()[index].store(p as usize, Ordering::SeqCst);
            if src.load(Ordering::SeqCst) == p {
                return p;
            }
        }
    }

    /// Publish an already-loaded pointer in slot `index` **without**
    /// validation. The caller must re-validate its source afterwards
    /// (the raw building block behind [`protect`](Self::protect)).
    ///
    /// # Panics
    ///
    /// Panics if `index >= HAZARDS_PER_THREAD`.
    pub fn publish<T>(&self, index: usize, ptr: *mut T) {
        self.hazards()[index].store(ptr as usize, Ordering::SeqCst);
    }

    /// Clear hazard slot `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= HAZARDS_PER_THREAD`.
    pub fn clear(&self, index: usize) {
        self.hazards()[index].store(0, Ordering::SeqCst);
    }

    /// Retire a node for deferred destruction.
    ///
    /// # Safety
    ///
    /// `ptr` must come from `Box::into_raw`, be unreachable to *new*
    /// traversals (unlinked), and be retired exactly once.
    pub unsafe fn retire<T: Send + 'static>(&self, ptr: *mut T) {
        let mut retired = self.retired.borrow_mut();
        retired.push(Retired {
            addr: ptr as usize,
            drop_fn: drop_box::<T>,
        });
        if retired.len() >= SCAN_THRESHOLD {
            self.inner.scan(&mut retired);
        }
    }

    /// Force a scan now (frees every retired node nobody protects).
    pub fn scan(&self) {
        self.inner.scan(&mut self.retired.borrow_mut());
    }

    /// Retired nodes still awaiting reclamation on this handle.
    pub fn pending(&self) -> usize {
        self.retired.borrow().len()
    }
}

impl Drop for HazardHandle {
    fn drop(&mut self) {
        for h in self.hazards() {
            h.store(0, Ordering::SeqCst);
        }
        // Try to free everything; orphan the rest.
        self.inner.scan(&mut self.retired.borrow_mut());
        let mut retired = self.retired.borrow_mut();
        if !retired.is_empty() {
            self.inner.orphans.lock().unwrap().append(&mut retired);
        }
        // All hazards are zeroed above, so the slot may be recycled.
        // SAFETY: our live registration on the domain's registry.
        unsafe { self.inner.registry.release(self.slot) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize as Counter;

    struct Counted(Arc<Counter>);
    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn protect_validates_against_source() {
        let domain = Domain::new();
        let h = domain.register();
        let a = Box::into_raw(Box::new(1u64));
        let src = AtomicPtr::new(a);
        let got = h.protect(0, &src);
        assert_eq!(got, a);
        h.clear(0);
        unsafe { drop(Box::from_raw(a)) };
    }

    #[test]
    fn protected_node_survives_scan() {
        let domain = Domain::new();
        let h = domain.register();
        let drops = Arc::new(Counter::new(0));
        let p = Box::into_raw(Box::new(Counted(drops.clone())));
        let src = AtomicPtr::new(p);
        let _ = h.protect(0, &src);

        // Another thread's handle retires it after unlinking.
        let h2 = domain.register();
        src.store(std::ptr::null_mut(), Ordering::SeqCst);
        unsafe { h2.retire(p) };
        h2.scan();
        assert_eq!(drops.load(Ordering::SeqCst), 0, "freed under hazard");

        h.clear(0);
        h2.scan();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn scan_threshold_triggers_automatically() {
        let domain = Domain::new();
        let h = domain.register();
        let drops = Arc::new(Counter::new(0));
        for _ in 0..SCAN_THRESHOLD + 5 {
            let p = Box::into_raw(Box::new(Counted(drops.clone())));
            unsafe { h.retire(p) };
        }
        assert!(
            drops.load(Ordering::SeqCst) >= SCAN_THRESHOLD,
            "automatic scan did not run"
        );
    }

    #[test]
    fn domain_drop_frees_orphans() {
        let drops = Arc::new(Counter::new(0));
        {
            let domain = Domain::new();
            let h = domain.register();
            for _ in 0..5 {
                let p = Box::into_raw(Box::new(Counted(drops.clone())));
                unsafe { h.retire(p) };
            }
            drop(h); // orphans any leftovers
        }
        assert_eq!(drops.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn stalled_thread_bounds_garbage_but_does_not_block_frees() {
        let domain = Domain::new();
        let drops = Arc::new(Counter::new(0));

        // A stalled reader protects exactly one node.
        let stalled = domain.register();
        let protected = Box::into_raw(Box::new(Counted(drops.clone())));
        let src = AtomicPtr::new(protected);
        let _ = stalled.protect(0, &src);

        // A worker retires that node and many others; everything except
        // the protected one must be freed (contrast with epochs, where
        // a stalled pin blocks all reclamation).
        let worker = domain.register();
        src.store(std::ptr::null_mut(), Ordering::SeqCst);
        unsafe { worker.retire(protected) };
        for _ in 0..50 {
            let p = Box::into_raw(Box::new(Counted(drops.clone())));
            unsafe { worker.retire(p) };
        }
        worker.scan();
        assert_eq!(drops.load(Ordering::SeqCst), 50, "unprotected nodes freed");
        assert_eq!(worker.pending(), 1, "only the hazard survives");

        stalled.clear(0);
        worker.scan();
        assert_eq!(drops.load(Ordering::SeqCst), 51);
    }

    #[test]
    fn register_recycles_released_slots() {
        let list = SlotList::new();
        let a = list.register();
        // SAFETY: `a` is a live registration.
        unsafe { list.release(a) };
        let b = list.register();
        assert_eq!(a, b, "released slot was not recycled");
        let c = list.register();
        assert_ne!(b, c, "in-use slot handed out twice");
        let mut count = 0;
        list.for_each(|_| count += 1);
        assert_eq!(count, 2);
    }

    #[test]
    fn slots_recycle_across_threads() {
        let domain = Arc::new(Domain::new());
        for _ in 0..16 {
            let domain = domain.clone();
            std::thread::spawn(move || {
                let h = domain.register();
                h.publish(0, std::ptr::null_mut::<u64>());
                h.clear(0);
            })
            .join()
            .unwrap();
        }
        // All threads released their slot; the registry should not have
        // grown without bound (can't observe directly, but registering
        // again must still work).
        let h = domain.register();
        h.scan();
    }
}
