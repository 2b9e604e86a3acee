//! Pluggable safe-memory-reclamation interface.
//!
//! The FR'04 list and skip list only *need* a reclamation scheme at two
//! points: protecting a traversal (so loaded pointers stay
//! dereferenceable) and retiring an unlinked node. Everything else —
//! how protection is announced, when retired memory is actually freed,
//! whether a read can skip announcing entirely — is backend policy.
//! The [`Reclaim`] trait captures exactly that seam so the structures
//! in `lf-core` can be instantiated over either of two backends:
//!
//! * [`Ebr`] — the epoch-based collector in this crate (the default);
//! * `Vbr` (in `lf-vbr`) — version-based reclamation layered on the
//!   epoch collector, where read-only operations skip the pin and
//!   instead validate birth-epoch stamps ([`Reclaim::PIN_FREE_READS`]).
//!
//! (Classic per-pointer hazard pointers, `lf-hazard`, sit outside this
//! trait: a protect-and-validate per hop does not fit a whole-traversal
//! guard, and only the Michael-list baseline uses them.)
//!
//! # Trait contract
//!
//! A *domain* is a shared reclamation scope: structures sharing a
//! domain may be traversed under one guard. A *handle* is one thread's
//! registration in a domain; a *guard* is an RAII proof of protection
//! obtained from [`Reclaim::pin`]. The two safety rules every backend
//! upholds:
//!
//! 1. **Protection.** Between `pin` and guard drop, no object retired
//!    via [`Reclaim::defer`] *after* the pin is freed. Pointers read
//!    from a shared structure under the guard stay dereferenceable.
//! 2. **Deferral.** A closure passed to `defer` runs at most once, and
//!    never before every guard live at defer time has dropped.
//!
//! Backends with [`Reclaim::PIN_FREE_READS`] additionally stamp each
//! allocation with a *birth epoch* ([`Reclaim::birth_epoch`]) and
//! promise that a recycled slot's new birth is strictly greater than its
//! previous tenant's retire epoch. Pin-free readers exploit this: they
//! copy fields with the [`atomic_read_copy`] helpers, then re-validate
//! the birth stamp before trusting the copy (the seqlock idiom — see
//! DESIGN.md §13).

use std::mem::{align_of, size_of, MaybeUninit};
use std::sync::atomic::{AtomicU16, AtomicU32, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;

use lf_metrics::UnreclaimedGauge;

use crate::{Collector, Guard, LocalHandle};

/// A safe-memory-reclamation backend.
///
/// See the [module docs](self) for the full contract. All methods are
/// associated functions (not `&self` methods) so the backend itself can
/// be a zero-sized type parameter on the data structures.
pub trait Reclaim: Sized + Send + Sync + 'static {
    /// Shared reclamation scope. Cloning yields another handle to the
    /// *same* domain (Arc semantics), never a new one.
    type Domain: Clone + Send + Sync + 'static;
    /// One thread's registration in a domain. Deliberately not `Send`
    /// in the provided backends: a handle belongs to the thread that
    /// registered it.
    type Handle;
    /// RAII proof of protection, borrowed from a handle.
    type Guard<'h>;
    /// Shadow storage embedded in a node for one pin-free-readable
    /// field of type `T`: `()` for pinned backends (zero bytes), an
    /// atomically-snooped cell for VBR. Written through
    /// [`Publish::publish`] during node initialization; read through
    /// [`Publish::snoop`] by optimistic readers.
    type Slot<T>: Default;

    /// Whether read-only operations may skip pinning and instead use
    /// the optimistic birth-stamp-validated read path.
    const PIN_FREE_READS: bool;

    /// Backend name as reported by experiments ("ebr", "vbr").
    const NAME: &'static str;

    /// Create a fresh, empty domain.
    fn new_domain() -> Self::Domain;

    /// Whether two domain values denote the same reclamation scope.
    fn domain_eq(a: &Self::Domain, b: &Self::Domain) -> bool;

    /// Register the calling thread, returning its handle.
    fn register(domain: &Self::Domain) -> Self::Handle;

    /// Announce protection; pointers loaded while the guard lives stay
    /// dereferenceable. Guards nest.
    fn pin(handle: &Self::Handle) -> Self::Guard<'_>;

    /// Queue `f` (typically a destructor + free) to run once no guard
    /// from before this call is still live.
    ///
    /// # Safety
    ///
    /// The object `f` frees must be unreachable to new operations and
    /// retired at most once.
    unsafe fn defer<F: FnOnce() + Send + 'static>(guard: &Self::Guard<'_>, f: F);

    /// The stamp to record as a freshly allocated object's birth epoch.
    ///
    /// Backends without pin-free reads return 0 (the call const-folds
    /// away); VBR returns the domain's current epoch. Takes the guard —
    /// allocation happens inside a pinned operation — so the returned
    /// epoch cannot lag the reclamation horizon.
    fn birth_epoch(guard: &Self::Guard<'_>) -> u64;

    /// Retired/freed accounting for this domain.
    fn gauge(domain: &Self::Domain) -> &UnreclaimedGauge;

    /// Only announce protection on every `every`-th pin (1 = always).
    fn amortize_pins(handle: &Self::Handle, every: u32);

    /// Drop any amortization so the thread stops holding back
    /// reclamation while idle.
    fn quiesce(handle: &Self::Handle);

    /// Hurry reclamation along: hand queued retirements to the domain
    /// and attempt collection now.
    fn flush(handle: &Self::Handle);
}

/// The "under construction" bit of a node's birth word: set (with the
/// new birth epoch in the low bits) before a recycled slot's fields are
/// rewritten, cleared by the final `Release` store that completes
/// initialization. A pin-free reader that observes it — or any birth
/// whose low 16 bits disagree with the pointer stamp it followed —
/// discards its optimistic copy and restarts.
pub const BIRTH_BUILDING: u64 = 1 << 63;

/// Per-field publication/snoop behavior of a backend, split from
/// [`Reclaim`] so only pin-free backends can demand `Pod` of stored
/// types: `Ebr` implements `Publish<T>` for every `T` (publication
/// is a no-op — its readers are pinned and use the plain fields),
/// while `lf-vbr` implements it only for `T: Pod` with genuine atomic
/// word copies. Data structures bound `R: Reclaim + Publish<K> +
/// Publish<V>`, which costs nothing under the default backend and
/// enforces VBR's `Pod` requirement at the type level.
pub trait Publish<T>: Reclaim {
    /// Copy `val` into the shadow slot. Called during node
    /// initialization, between the `BIRTH_BUILDING` store and the
    /// birth-finalizing `Release` store; pin-free backends must use
    /// atomic stores (concurrent stale snoops are allowed by design).
    ///
    /// # Safety
    ///
    /// `slot` must be the shadow slot of a node currently being
    /// initialized by this thread.
    unsafe fn publish(slot: &Self::Slot<T>, val: &T);

    /// Optimistically copy the shadow slot. Only meaningful when
    /// [`Reclaim::PIN_FREE_READS`]; the returned bytes are possibly
    /// torn or stale and MUST be birth-validated before
    /// `assume_init`.
    ///
    /// # Safety
    ///
    /// `slot` must belong to a node of a structure whose storage is
    /// type-stable (pooled, never deallocated while the structure
    /// lives).
    unsafe fn snoop(slot: &Self::Slot<T>) -> MaybeUninit<T>;
}

// ---------------------------------------------------------------------------
// Pod + atomic word copies: the raw material of pin-free reads.
// ---------------------------------------------------------------------------

/// Plain-old-data: types a pin-free reader may copy byte-wise from
/// memory that might be concurrently recycled.
///
/// # Safety
///
/// Implementors guarantee all of:
///
/// * `Copy` with no drop glue anywhere in the type (so a stale copy
///   discarded after failed validation leaks nothing and double-frees
///   nothing);
/// * any bit pattern *written through* [`atomic_write_copy`] and read
///   back *whole* is a valid value (the seqlock validation ensures a
///   reader never materializes a torn mix of two writes, but the bytes
///   of one complete write must themselves be valid);
/// * **no padding bytes** anywhere in the layout. The atomic word
///   copies load every byte of the value through integer atomics;
///   padding is uninitialized memory, and loading it is undefined
///   behavior regardless of what the copy is later used for. (Zeroing
///   padding first does not help: any typed write of the value resets
///   its padding to uninit.)
///
/// All primitive integers, floats, `bool`, `char`, and arrays of `Pod`
/// qualify. Tuples and most structs do **not** automatically qualify —
/// the compiler may insert padding — so implement `Pod` only on types
/// whose layout you control (e.g. `#[repr(C)]` with explicitly
/// padding-free field sizes). Types with interior pointers or
/// non-trivial invariants across fields generally do not belong behind
/// a pin-free read and should use the pinned path.
pub unsafe trait Pod: Copy + Send + Sync + 'static {}

macro_rules! impl_pod {
    ($($t:ty),* $(,)?) => {$(
        // SAFETY: primitive scalar — Copy, no drop glue, and every
        // complete written value is valid.
        unsafe impl Pod for $t {}
    )*};
}

impl_pod!(
    u8,
    u16,
    u32,
    u64,
    u128,
    usize,
    i8,
    i16,
    i32,
    i64,
    i128,
    isize,
    f32,
    f64,
    bool,
    char,
    ()
);

// SAFETY: an array of Pod is Pod — element-wise the guarantees hold
// and arrays never insert padding between elements.
unsafe impl<T: Pod, const N: usize> Pod for [T; N] {}

/// Copy `*src` with per-word atomic loads, returning possibly-torn
/// bytes the caller must validate before [`MaybeUninit::assume_init`].
///
/// The loads are `Relaxed`; the pin-free read protocol orders them with
/// an `Acquire` fence *after* the copy, paired with the writer's
/// `Release` fence before its field writes. Chunk size follows the
/// type's alignment (Rust guarantees `size % align == 0`).
///
/// # Safety
///
/// `src` must be non-null, aligned, and point into an allocation that
/// stays *allocated* (though possibly recycled and rewritten) for the
/// duration of the call — the pooled-slot guarantee of VBR.
pub unsafe fn atomic_read_copy<T: Pod>(src: *const T) -> MaybeUninit<T> {
    let mut out = MaybeUninit::<T>::uninit();
    let size = size_of::<T>();
    let align = align_of::<T>();
    let dst = out.as_mut_ptr();
    macro_rules! chunked {
        ($atom:ty, $word:ty) => {{
            let n = size / size_of::<$word>();
            for i in 0..n {
                // SAFETY: caller guarantees `src` is aligned and the
                // allocation outlives the call; `i < size/word` keeps
                // the offset in bounds; alignment of the chunk follows
                // from `align >= align_of::<$word>()`.
                let w = unsafe { &*(src as *const $atom).add(i) }
                    // ord: Relaxed — VBR.read: ordered by the caller's Acquire fence
                    .load(Ordering::Relaxed);
                // SAFETY: same bounds as the load; `dst` is a local
                // MaybeUninit of the same size.
                unsafe { (dst as *mut $word).add(i).write(w) };
            }
        }};
    }
    if align >= align_of::<AtomicUsize>() {
        chunked!(AtomicUsize, usize)
    } else if align >= align_of::<AtomicU32>() {
        chunked!(AtomicU32, u32)
    } else if align >= align_of::<AtomicU16>() {
        chunked!(AtomicU16, u16)
    } else {
        chunked!(AtomicU8, u8)
    }
    out
}

/// Store `val` into `*dst` with per-word atomic stores (`Relaxed`; the
/// caller's `Release` fence *before* this call publishes the bytes to
/// validating readers).
///
/// # Safety
///
/// `dst` must be non-null, aligned, and writable; concurrent readers
/// may observe torn intermediate states, which is sound only under the
/// birth-stamp validation protocol.
pub unsafe fn atomic_write_copy<T: Pod>(dst: *mut T, val: T) {
    let size = size_of::<T>();
    let align = align_of::<T>();
    let src = &val as *const T;
    macro_rules! chunked {
        ($atom:ty, $word:ty) => {{
            let n = size / size_of::<$word>();
            for i in 0..n {
                // SAFETY: `val` is a live local of size `size`.
                let w = unsafe { (src as *const $word).add(i).read() };
                // SAFETY: caller guarantees `dst` aligned, writable,
                // in-bounds for `size` bytes.
                unsafe { &*(dst as *const $atom).add(i) }
                    // ord: Relaxed — VBR.read: ordered by the caller's Release fence
                    .store(w, Ordering::Relaxed);
            }
        }};
    }
    if align >= align_of::<AtomicUsize>() {
        chunked!(AtomicUsize, usize)
    } else if align >= align_of::<AtomicU32>() {
        chunked!(AtomicU32, u32)
    } else if align >= align_of::<AtomicU16>() {
        chunked!(AtomicU16, u16)
    } else {
        chunked!(AtomicU8, u8)
    }
}

// ---------------------------------------------------------------------------
// The EBR backend: this crate's collector behind the trait.
// ---------------------------------------------------------------------------

/// Epoch-based reclamation — the default backend, wrapping
/// [`Collector`] unchanged. Reads pin (amortizable); no birth stamps.
pub struct Ebr;

/// An EBR domain: a [`Collector`] plus its retired/freed gauge.
#[derive(Clone)]
pub struct EbrDomain {
    collector: Collector,
    gauge: Arc<UnreclaimedGauge>,
}

impl std::fmt::Debug for EbrDomain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EbrDomain").finish_non_exhaustive()
    }
}

/// One thread's registration in an [`EbrDomain`].
pub struct EbrHandle {
    local: LocalHandle,
    gauge: Arc<UnreclaimedGauge>,
}

/// RAII pin over the EBR collector.
pub struct EbrGuard<'h> {
    inner: Guard<'h>,
    gauge: &'h Arc<UnreclaimedGauge>,
}

impl Reclaim for Ebr {
    type Domain = EbrDomain;
    type Handle = EbrHandle;
    type Guard<'h> = EbrGuard<'h>;
    type Slot<T> = ();

    const PIN_FREE_READS: bool = false;
    const NAME: &'static str = "ebr";

    fn new_domain() -> EbrDomain {
        EbrDomain {
            collector: Collector::new(),
            gauge: Arc::new(UnreclaimedGauge::new()),
        }
    }

    fn domain_eq(a: &EbrDomain, b: &EbrDomain) -> bool {
        a.collector.ptr_eq(&b.collector)
    }

    fn register(domain: &EbrDomain) -> EbrHandle {
        EbrHandle {
            local: domain.collector.register(),
            gauge: Arc::clone(&domain.gauge),
        }
    }

    fn pin(handle: &EbrHandle) -> EbrGuard<'_> {
        EbrGuard {
            inner: handle.local.pin(),
            gauge: &handle.gauge,
        }
    }

    // SAFETY: forwarded caller contract — the object is unreachable to
    // new operations and retired exactly once; the epoch grace period
    // below only delays `f`, never duplicates it.
    unsafe fn defer<F: FnOnce() + Send + 'static>(guard: &EbrGuard<'_>, f: F) {
        guard.gauge.record_retire(1);
        let gauge = Arc::clone(guard.gauge);
        // SAFETY: forwarded caller contract — object unreachable,
        // retired once.
        unsafe {
            // unlink: UNLINK.backend-defer: backend shim — the caller's own
            // `// unlink:` site vouches for the unlink CAS
            guard.inner.defer_unchecked(move || {
                f();
                gauge.record_free(1);
            });
        }
    }

    fn birth_epoch(_guard: &EbrGuard<'_>) -> u64 {
        0
    }

    fn gauge(domain: &EbrDomain) -> &UnreclaimedGauge {
        &domain.gauge
    }

    fn amortize_pins(handle: &EbrHandle, every: u32) {
        handle.local.amortize_pins(every);
    }

    fn quiesce(handle: &EbrHandle) {
        handle.local.quiesce();
    }

    fn flush(handle: &EbrHandle) {
        handle.local.flush();
    }
}

/// EBR publishes everything trivially: readers are pinned and use the
/// nodes' plain fields, so the shadow slot is `()` and both operations
/// are no-ops the optimizer deletes.
impl<T> Publish<T> for Ebr {
    // SAFETY: no-op — nothing is published; EBR readers are pinned and
    // use the nodes' plain fields.
    unsafe fn publish(_slot: &(), _val: &T) {}

    // SAFETY: never called — `PIN_FREE_READS` is false for this
    // backend, so no read path snoops; the uninit value backs the
    // debug assertion only.
    unsafe fn snoop(_slot: &()) -> MaybeUninit<T> {
        debug_assert!(false, "snoop on a backend without pin-free reads");
        MaybeUninit::uninit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn ebr_defer_runs_after_unpin_and_moves_gauge() {
        let domain = Ebr::new_domain();
        let handle = Ebr::register(&domain);
        let freed = Arc::new(AtomicUsize::new(0));
        {
            let guard = Ebr::pin(&handle);
            let f = Arc::clone(&freed);
            // SAFETY: the "object" is a counter bump; trivially
            // unreachable and retired once.
            unsafe {
                Ebr::defer(&guard, move || {
                    f.fetch_add(1, Ordering::SeqCst);
                });
            }
            assert_eq!(Ebr::gauge(&domain).snapshot().retired, 1);
        }
        Ebr::flush(&handle);
        Ebr::flush(&handle);
        Ebr::flush(&handle);
        assert_eq!(freed.load(Ordering::SeqCst), 1);
        let s = Ebr::gauge(&domain).snapshot();
        assert_eq!(s.freed, 1);
        assert_eq!(s.unreclaimed, 0);
        assert_eq!(s.peak_unreclaimed, 1);
    }

    #[test]
    fn domain_eq_distinguishes_domains() {
        let a = Ebr::new_domain();
        let b = Ebr::new_domain();
        assert!(Ebr::domain_eq(&a, &a.clone()));
        assert!(!Ebr::domain_eq(&a, &b));
    }

    #[test]
    fn atomic_copies_round_trip() {
        #[derive(Clone, Copy, PartialEq, Debug)]
        #[repr(C)]
        struct Wide {
            a: u64,
            b: u32,
            c: u32,
        }
        // SAFETY: Copy, no drop glue, every complete value valid.
        unsafe impl Pod for Wide {}

        let mut slot = Wide { a: 0, b: 0, c: 0 };
        let val = Wide {
            a: 0xdead_beef_feed_face,
            b: 7,
            c: 9,
        };
        // SAFETY: `slot` is a live, aligned local.
        unsafe { atomic_write_copy(&mut slot, val) };
        // SAFETY: `slot` is a live, aligned local.
        let copy = unsafe { atomic_read_copy(&slot) };
        // SAFETY: no concurrent writer — the copy is untorn.
        assert_eq!(unsafe { copy.assume_init() }, val);

        let mut small: u8 = 0;
        // SAFETY: aligned local.
        unsafe { atomic_write_copy(&mut small, 0xa5u8) };
        // SAFETY: aligned local; untorn (no concurrency).
        assert_eq!(unsafe { atomic_read_copy(&small).assume_init() }, 0xa5);
    }
}
