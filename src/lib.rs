#![warn(missing_docs)]

//! Umbrella crate for the Fomitchev–Ruppert lock-free linked list and
//! skip list reproduction.
//!
//! Re-exports the public API of every workspace crate so examples and
//! downstream users need a single dependency:
//!
//! * `core` (re-exported inline) — the paper's data structures
//!   ([`FrList`], [`ListSet`] and the skip list types);
//! * [`baselines`] — comparator implementations (Harris list,
//!   lock-based lists and skip lists, restart-based skip list);
//! * [`reclaim`] — epoch-based memory reclamation;
//! * [`hazard`] — hazard-pointer reclamation (used by the Michael baseline);
//! * [`map`] — Michael-style bucketed hash map over FR-list buckets;
//! * [`metrics`] — essential-step accounting;
//! * [`sched`] — the deterministic step-machine scheduler used to
//!   replay the paper's adversarial executions;
//! * [`workloads`] — workload generators.

/// Per-thread handles must not cross threads (they own unsynchronized
/// reclamation state). This is enforced at compile time:
///
/// ```compile_fail
/// let list = lockfree_lists::FrList::<u64, u64>::new();
/// let h = list.handle();
/// std::thread::spawn(move || drop(h)); // error: `ListHandle` is not `Send`
/// ```
///
/// ```compile_fail
/// let sl = lockfree_lists::SkipList::<u64, u64>::new();
/// let h = sl.handle();
/// std::thread::spawn(move || drop(h)); // error: `SkipListHandle` is not `Send`
/// ```
pub mod thread_safety_contracts {}

/// The README's Rust samples, compiled and run as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

pub use lf_baselines as baselines;
pub use lf_core::*;
pub use lf_hazard as hazard;
pub use lf_map as map;
pub use lf_metrics as metrics;
pub use lf_reclaim as reclaim;
pub use lf_sched as sched;
pub use lf_tagged as tagged;
pub use lf_workloads as workloads;
