//! Version-based reclamation (VBR) behind the `lf_reclaim::Reclaim`
//! trait — the backend whose *read-only* operations skip the epoch pin
//! entirely ([`Reclaim::PIN_FREE_READS`]` = true`).
//!
//! Following the smr-benchmark VBR idiom (Sheffi, Morrison & Petrank's
//! scheme), objects live in type-stable pooled slots and every
//! allocation is stamped with a **birth epoch**; pointers embed the low
//! 16 bits of their target's birth (`lf_tagged`'s stamp bits), so an
//! optimistic reader can *validate* instead of *announce*:
//!
//! 1. load a stamped pointer from the structure;
//! 2. atomically word-copy whatever fields it needs
//!    (`lf_reclaim::atomic_read_copy`);
//! 3. `Acquire`-fence, then re-read the target's birth word — if it
//!    still matches the stamp (and no builder bit is set), the copy is
//!    untorn and belongs to the tenant the pointer named; otherwise
//!    **restart**.
//!
//! A stalled pin-free reader holds no announcement, so it cannot block
//! reclamation — the property E14's stalled-reader scenario measures
//! against EBR, where a stalled pin freezes the epoch and garbage grows
//! without bound.
//!
//! ## Division of labor
//!
//! This crate deliberately layers on the collector in `lf-reclaim`
//! rather than reimplementing epoch consensus:
//!
//! * **Writers** (and any pinned reader) pin exactly like EBR — insert
//!   and delete already dereference nodes they may unlink, and FR'04's
//!   helping protocol requires stable successors, so the pin stays the
//!   right tool off the read path. Epoch advance and the two-generation
//!   grace rule are the collector's, unchanged.
//! * **Birth/retire discipline** is what this crate adds:
//!   [`Vbr::birth_epoch`] stamps allocations with the global epoch, and
//!   because a retired slot can only be recycled after the epoch has
//!   advanced past `retire + GRACE`, a recycled slot's new birth is
//!   strictly greater than its previous tenant's — the inequality that
//!   makes step 3 above sound (DESIGN.md §13 gives the full argument).
//! * **Readers' safety against torn/stale data** lives in the seqlock
//!   publication protocol in `lf-core` (builder bit + fences) plus the
//!   `Pod` bound on pin-free-readable payloads: a discarded stale copy
//!   has no drop glue, and validation rejects any copy that overlapped
//!   a re-initialization.
//!
//! The residual risk of 16-bit stamps (reuse `2^16` epochs apart can
//! alias) is documented in DESIGN.md §13 with the DWCAS mitigation;
//! epochs advance only under quiescence of all pinned threads, so an
//! aliasing wrap during one bounded `try_read` attempt would require
//! the reader to straddle 65,536 full grace periods.

use std::cell::UnsafeCell;
use std::fmt;
use std::mem::MaybeUninit;
use std::sync::Arc;

use lf_metrics::UnreclaimedGauge;
use lf_reclaim::{
    atomic_read_copy, atomic_write_copy, Collector, Guard, LocalHandle, Pod, Publish, Reclaim,
};

/// Version-based reclamation backend ([`Reclaim`] implementor).
pub struct Vbr;

/// A VBR domain: the shared epoch collector plus its retired/freed
/// gauge.
#[derive(Clone)]
pub struct VbrDomain {
    collector: Collector,
    gauge: Arc<UnreclaimedGauge>,
}

impl fmt::Debug for VbrDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VbrDomain")
            .field("epoch", &self.collector.global_epoch())
            .finish_non_exhaustive()
    }
}

/// One thread's registration in a [`VbrDomain`]. Not `Send`.
pub struct VbrHandle {
    local: LocalHandle,
    collector: Collector,
    gauge: Arc<UnreclaimedGauge>,
}

/// RAII pin for VBR's *writer* path (identical to EBR's guard —
/// pin-free reads never construct one).
pub struct VbrGuard<'h> {
    inner: Guard<'h>,
    handle: &'h VbrHandle,
}

/// Shadow storage for one pin-free-readable field: an unsynchronized
/// cell the backend copies into with per-word atomic stores at publish
/// time and out of with per-word atomic loads at snoop time. The cell
/// starts uninitialized ([`Default`] — nodes come out of the pool
/// before their first publication) and is only `assume_init`-ed by a
/// reader after birth-stamp validation proves the copy untorn.
pub struct VbrSlot<T> {
    cell: UnsafeCell<MaybeUninit<T>>,
}

impl<T> Default for VbrSlot<T> {
    fn default() -> Self {
        VbrSlot {
            cell: UnsafeCell::new(MaybeUninit::uninit()),
        }
    }
}

// SAFETY: all access to the cell goes through the per-word atomic
// copies in `Publish for Vbr`; the type-level race window (torn or
// stale bytes) is resolved by the caller's seqlock validation, and
// `T: Pod` means a discarded copy carries no drop obligations.
unsafe impl<T: Send> Send for VbrSlot<T> {}
// SAFETY: as above — shared references only ever reach the cell via
// atomic word copies.
unsafe impl<T: Send> Sync for VbrSlot<T> {}

impl Reclaim for Vbr {
    type Domain = VbrDomain;
    type Handle = VbrHandle;
    type Guard<'h> = VbrGuard<'h>;
    type Slot<T> = VbrSlot<T>;

    const PIN_FREE_READS: bool = true;
    const NAME: &'static str = "vbr";

    fn new_domain() -> VbrDomain {
        VbrDomain {
            collector: Collector::new(),
            gauge: Arc::new(UnreclaimedGauge::new()),
        }
    }

    fn domain_eq(a: &VbrDomain, b: &VbrDomain) -> bool {
        a.collector.ptr_eq(&b.collector)
    }

    fn register(domain: &VbrDomain) -> VbrHandle {
        VbrHandle {
            local: domain.collector.register(),
            collector: domain.collector.clone(),
            gauge: Arc::clone(&domain.gauge),
        }
    }

    fn pin(handle: &VbrHandle) -> VbrGuard<'_> {
        VbrGuard {
            inner: handle.local.pin(),
            handle,
        }
    }

    // SAFETY: forwarded caller contract plus the Pod escape hatch
    // documented on the inner block: stale pin-free readers may copy
    // the slot's bytes after `f` runs, which is sound only because
    // pin-free-readable payloads have no drop glue.
    unsafe fn defer<F: FnOnce() + Send + 'static>(guard: &VbrGuard<'_>, f: F) {
        guard.handle.gauge.record_retire(1);
        let gauge = Arc::clone(&guard.handle.gauge);
        // SAFETY: forwarded caller contract — object unreachable to new
        // operations, retired once. Stale *pin-free* readers may still
        // copy the slot's bytes after `f` runs; that is sound because
        // pin-free-readable payloads are `Pod` (no drop glue to
        // invalidate the bytes) and the slot memory is type-stable
        // pooled storage that stays allocated.
        unsafe {
            // unlink: UNLINK.backend-defer: backend shim — the caller's own
            // `// unlink:` site vouches for the unlink CAS
            guard.inner.defer_unchecked(move || {
                f();
                gauge.record_free(1);
            });
        }
    }

    fn birth_epoch(guard: &VbrGuard<'_>) -> u64 {
        // The caller is pinned (allocation happens inside an op), so
        // this epoch is at most one advance behind the true current
        // epoch — and, critically, at least `GRACE` ahead of the retire
        // epoch of the slot's previous tenant, because the pool only
        // recycles a slot after its retirement fired.
        guard.handle.collector.global_epoch()
    }

    fn gauge(domain: &VbrDomain) -> &UnreclaimedGauge {
        &domain.gauge
    }

    fn amortize_pins(handle: &VbrHandle, every: u32) {
        handle.local.amortize_pins(every);
    }

    fn quiesce(handle: &VbrHandle) {
        handle.local.quiesce();
    }

    fn flush(handle: &VbrHandle) {
        handle.local.flush();
    }
}

/// Genuine publication: only `Pod` payloads may sit behind a pin-free
/// read, and both directions are per-word atomic copies so a stale
/// snoop racing a re-publication is a *validated-away* value, never a
/// data race.
impl<T: Pod> Publish<T> for Vbr {
    // SAFETY: per the trait contract the caller is the initializing
    // thread and owns the slot's logical contents; see the inner block.
    unsafe fn publish(slot: &VbrSlot<T>, val: &T) {
        // SAFETY: the initializing thread owns the slot's contents
        // (caller contract); concurrent snoops touch the same bytes
        // only through atomic loads, which these atomic stores may
        // legally race with.
        unsafe { atomic_write_copy(slot.cell.get().cast::<T>(), *val) };
    }

    // SAFETY: per the trait contract the slot lives in type-stable
    // pooled storage; the copied bytes are only trusted after the
    // caller's birth-stamp validation.
    unsafe fn snoop(slot: &VbrSlot<T>) -> MaybeUninit<T> {
        // SAFETY: slot memory is type-stable pooled storage (caller
        // contract), so the allocation outlives the copy even if the
        // tenant is concurrently retired and recycled.
        unsafe { atomic_read_copy(slot.cell.get().cast::<T>().cast_const()) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn pin_free_reads_flag_is_set() {
        const { assert!(Vbr::PIN_FREE_READS) };
        assert_eq!(Vbr::NAME, "vbr");
    }

    #[test]
    fn birth_epochs_are_monotone_across_reclamation() {
        let domain = Vbr::new_domain();
        let handle = Vbr::register(&domain);
        let mut last = 0;
        for _ in 0..16 {
            let guard = Vbr::pin(&handle);
            let birth = Vbr::birth_epoch(&guard);
            assert!(birth >= last, "birth epoch went backwards");
            last = birth;
            // SAFETY: no-op retirement, retired once.
            unsafe { Vbr::defer(&guard, || {}) };
            drop(guard);
            Vbr::flush(&handle);
        }
        assert!(last > 0, "epoch never advanced");
    }

    #[test]
    fn unpinned_stalled_reader_does_not_block_reclamation() {
        let domain = Vbr::new_domain();
        let writer = Vbr::register(&domain);
        // A VBR reader mid-`try_read` holds NO guard — simulate one by
        // simply registering and never pinning.
        let _stalled_reader = Vbr::register(&domain);

        let freed = Arc::new(AtomicUsize::new(0));
        for _ in 0..64 {
            let guard = Vbr::pin(&writer);
            let f = Arc::clone(&freed);
            // SAFETY: counter bump, retired once.
            unsafe {
                Vbr::defer(&guard, move || {
                    f.fetch_add(1, Ordering::SeqCst);
                });
            }
            drop(guard);
            Vbr::flush(&writer);
        }
        assert!(
            freed.load(Ordering::SeqCst) > 0,
            "an unpinned reader must not hold back the epoch"
        );
        // Contrast: a *pinned* stall (EBR semantics) does block.
        let pinned = Vbr::register(&domain);
        let _hold = Vbr::pin(&pinned);
        for _ in 0..8 {
            let guard = Vbr::pin(&writer);
            let f = Arc::clone(&freed);
            // SAFETY: counter bump, retired once.
            unsafe {
                Vbr::defer(&guard, move || {
                    f.fetch_add(1, Ordering::SeqCst);
                });
            }
            drop(guard);
            Vbr::flush(&writer);
        }
        // Nothing retired after the pin may free (the epoch cannot
        // advance GRACE generations past the held announcement).
        let s = Vbr::gauge(&domain).snapshot();
        assert!(s.unreclaimed >= 8, "pinned stall failed to hold garbage");
        assert_eq!(s.retired, 72);
    }
}
