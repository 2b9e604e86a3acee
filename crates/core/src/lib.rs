//! Lock-free linked lists and skip lists — the data structures of
//! Fomitchev & Ruppert, *Lock-Free Linked Lists and Skip Lists*
//! (PODC 2004).
//!
//! This crate implements the paper's two contributions:
//!
//! * [`FrList`] — a lock-free sorted singly-linked-list dictionary with
//!   **backlinks** and **flag bits**, whose operations have amortized
//!   cost `O(n + c)` (list length plus point contention) — strictly
//!   better than Harris-style restart-from-head lists;
//! * `SkipList` — a lock-free skip list whose every level runs the
//!   list algorithms above, with per-key *towers* of nodes, bottom-up
//!   insertion and top-down deletion of *superfluous* towers.
//!
//! Both are linearizable and lock-free: a stalled or dead thread can
//! never block others' progress. Memory is managed by the epoch-based
//! reclamation in [`lf_reclaim`]; essential algorithm steps are metered
//! through [`lf_metrics`] so the paper's amortized analysis can be
//! validated empirically (see the workspace's `lf-bench` crate).
//!
//! # Quick start
//!
//! ```
//! use lf_core::FrList;
//! use std::sync::Arc;
//!
//! let map = Arc::new(FrList::new());
//! std::thread::scope(|s| {
//!     for t in 0..4i64 {
//!         let map = Arc::clone(&map);
//!         s.spawn(move || {
//!             let h = map.handle();
//!             for i in 0..100 {
//!                 let _ = h.insert(t * 1000 + i, i);
//!             }
//!         });
//!     }
//! });
//! assert_eq!(map.len(), 400);
//! ```

pub mod list;
mod map;
pub(crate) mod pool;
pub mod pq;
pub mod skiplist;

pub use list::{ChainIter, FrList, Iter, ListHandle, ListSet, SetHandle};
pub use map::{ConcurrentMap, MapHandle};
pub use pq::{PqHandle, PriorityQueue};
pub use skiplist::{
    merged_range, RangeIter, SkipIter, SkipList, SkipListHandle, SkipSet, SkipSetHandle,
    DEFAULT_MAX_LEVEL,
};
