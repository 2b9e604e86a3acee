//! Tagged atomic pointers for lock-free list algorithms.
//!
//! Fomitchev & Ruppert's algorithms (PODC 2004) operate on a composite
//! *successor field* `(right, mark, flag)` — a pointer plus two control
//! bits — updated atomically with a single-word compare-and-swap:
//!
//! * the **mark** bit means the node containing this field is logically
//!   deleted and its successor pointer is frozen forever;
//! * the **flag** bit means a deletion of the *successor* node is in
//!   progress and the field must not change until the flag is removed.
//!
//! On modern 64-bit targets every heap allocation of the node types used
//! by this workspace is at least 8-byte aligned, leaving the low three
//! pointer bits free. This crate packs the mark bit into bit 0 and the
//! flag bit into bit 1, exactly mirroring the paper's footnote 1.
//!
//! Two types are provided:
//!
//! * [`TaggedPtr<T>`] — an immutable snapshot of a successor field, a
//!   plain `Copy` value you can destructure and rebuild;
//! * [`AtomicTaggedPtr<T>`] — the shared field itself, supporting
//!   `load`, `store`, and `compare_exchange` over whole snapshots.
//!
//! Two dependency-free concurrency utilities shared by the crates built
//! on top also live here: [`CachePadded`] (64-byte alignment against
//! false sharing) and [`Backoff`] (truncated exponential spin for CAS
//! retry loops). So does the step hook, [`step`]: the lists announce
//! each essential access as a [`StepKind`], which `lf-sched`'s
//! deterministic scheduler turns into a grant point.
//!
//! # Examples
//!
//! ```
//! use lf_tagged::{AtomicTaggedPtr, TaggedPtr};
//! use std::sync::atomic::Ordering;
//!
//! let node = Box::into_raw(Box::new(42u64));
//! let succ = AtomicTaggedPtr::new(TaggedPtr::unmarked(node));
//!
//! // Flag the field (deletion of successor announced):
//! let old = succ.load(Ordering::SeqCst);
//! assert!(succ
//!     .compare_exchange(old, old.with_flag(), Ordering::SeqCst, Ordering::SeqCst)
//!     .is_ok());
//! assert!(succ.load(Ordering::SeqCst).is_flagged());
//!
//! // A marked field can never also be flagged (INV 5):
//! assert!(!succ.load(Ordering::SeqCst).is_marked());
//! # unsafe { drop(Box::from_raw(node)) };
//! ```

mod backoff;
mod pad;
mod ptr;
mod step;

pub use backoff::Backoff;
pub use pad::CachePadded;
pub use ptr::{
    AtomicTaggedPtr, TagBits, TaggedPtr, FLAG_BIT, MARK_BIT, STAMP_MASK, STAMP_SHIFT, TAG_MASK,
};
#[doc(hidden)]
pub use step::StepHook;
pub use step::{step, StepKind};
