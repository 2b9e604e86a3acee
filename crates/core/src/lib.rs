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
//! Both are dictionaries behind one pair of traits: [`ConcurrentMap`]
//! for the shared structure and [`MapHandle`] for a thread's handle.
//! A structure's `insert`, `get_with` and `remove_with` are written
//! once, in its handle's `MapHandle` impl; `get`, `remove` and
//! `contains` are provided by the trait, so callers
//! `use lf_core::MapHandle`. [`MapSet`] is the one set façade over any
//! such map with unit values ([`ListSet`], [`SkipSet`]).
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
//! use lf_core::{FrList, MapHandle};
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
mod set;
pub mod skiplist;
mod tower;

pub use list::{ChainIter, FrList, Iter, ListHandle};
pub use map::{ConcurrentMap, MapHandle};
pub use set::{ListSet, MapSet, MapSetHandle, SetHandle, SkipSet, SkipSetHandle};
pub use skiplist::{
    merged_range, RangeIter, SkipIter, SkipList, SkipListHandle, DEFAULT_MAX_LEVEL, MAX_LEVEL_LIMIT,
};
