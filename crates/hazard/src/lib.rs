//! Classic per-pointer hazard pointers ([`Domain`] / [`HazardHandle`]):
//! M. Michael, *Safe Memory Reclamation for Dynamic Lock-Free Objects
//! Using Atomic Reads and Writes*, PODC 2002 — the paper's reference
//! \[9\], and the scheme Michael paired with his list-based sets \[8\].
//!
//! Each thread publishes every pointer it is about to dereference in one
//! of its [`HAZARDS_PER_THREAD`] slots and re-validates the source;
//! retiring threads scan all published hazards and free exactly the
//! unprotected nodes. Garbage is bounded by `O(threads × hazards)` even
//! when a thread stalls forever — at the cost of a published store +
//! validation on every pointer hop. The Michael-list baseline in
//! `lf-baselines` uses this end-to-end. (The FR list and skip list take
//! their reclamation through `lf_reclaim::Reclaim` instead: EBR or VBR.)
//!
//! # Examples
//!
//! ```
//! use lf_hazard::Domain;
//! use std::sync::atomic::{AtomicPtr, Ordering};
//!
//! let domain = Domain::new();
//! let shared = AtomicPtr::new(Box::into_raw(Box::new(5u64)));
//!
//! let h = domain.register();
//! // Publish + validate before dereferencing:
//! let p = h.protect(0, &shared);
//! assert_eq!(unsafe { *p }, 5);
//!
//! // Unlink and retire; the scan cannot free it while slot 0 holds it.
//! let old = shared.swap(std::ptr::null_mut(), Ordering::SeqCst);
//! unsafe { h.retire(old) };
//! h.clear(0);
//! // Freed at a later scan (or when the domain drops).
//! ```

mod classic;

pub use classic::{Domain, HazardHandle, HAZARDS_PER_THREAD};
