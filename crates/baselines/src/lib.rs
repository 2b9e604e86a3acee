//! Comparator implementations for the Fomitchev–Ruppert reproduction.
//!
//! Every baseline the paper measures against (or that its related-work
//! section names) is implemented here, from scratch:
//!
//! * [`HarrisList`] — Harris's lock-free list (the paper's \[3\]):
//!   two-step deletion with mark bits only; **restarts from the head**
//!   whenever a C&S fails. The §3.1 adversarial schedule drives its
//!   average cost to `Ω(n̄·c̄)`.
//! * [`MichaelList`] — Michael's list-based set (the paper's \[8\]):
//!   Harris-style marking with single-node unlinks, managed end-to-end
//!   by hazard pointers (the paper's \[9\], in `lf-hazard`).
//! * [`NoFlagList`] — the "Valois-style" ablation: backlinks *without*
//!   flag bits, so backlinks can point at marked nodes and chains of
//!   backlinks can grow rightwards (the pathology the paper's flag bits
//!   eliminate). Used for experiment E8.
//! * [`RestartSkipList`] — a Fraser/Harris-style lock-free skip list,
//!   one allocation per tower: no backlinks, single-node unlinks,
//!   restart from the top on interference.
//! * [`CoarseLockList`] — a sorted singly-linked list under one global
//!   mutex.
//! * [`HohLockList`] — a sorted list with hand-over-hand (lock
//!   coupling) per-node locking.
//! * [`SeqSkipList`] — Pugh's sequential skip list (the substrate for
//!   the lock-based comparator).
//! * [`LockSkipList`] — [`SeqSkipList`] under a global `RwLock`
//!   (parallel readers, exclusive writers).
//!
//! The first three are one [`MarkedList`]: a shared marked-link core
//! (node, sentinels, `Drop`, handle, trait impls, quiescent validator)
//! under three recovery policies, so each list's module holds only its
//! own search, insert and delete.
//!
//! Every baseline uses the core crate's essential-step metering, so
//! step-count and throughput comparisons are apples-to-apples; the four
//! lock-free ones also call `lf_tagged::step` at each shared access, so
//! `lf-sched` can drive them one step at a time. The Harris and restart
//! lists reclaim through the core crate's epochs, Michael's list
//! through hazard pointers, and the no-flag list frees nothing until it
//! is dropped.
//!
//! The seven concurrent ones implement [`lf_core::ConcurrentMap`], so
//! any harness written against that trait runs them unchanged (bring
//! [`lf_core::MapHandle`] into scope to call a handle's operations).
//! The four lock-free ones share one per-thread handle type; the
//! lock-based lists implement `MapHandle` themselves and serve as their
//! own handle (`&Self`, through the trait's blanket impl for
//! references).

mod coarse_list;
mod harris;
mod hoh_list;
mod lock_skiplist;
mod marked;
mod michael;
mod noflag;
mod restart_skiplist;
mod seq_skiplist;

pub use coarse_list::CoarseLockList;
pub use harris::HarrisList;
pub use hoh_list::HohLockList;
pub use lock_skiplist::LockSkipList;
pub use marked::MarkedList;
pub use michael::MichaelList;
pub use noflag::NoFlagList;
pub use restart_skiplist::RestartSkipList;
pub use seq_skiplist::SeqSkipList;

/// A key extended with `-∞`/`+∞` sentinels, shared by the baseline
/// lists (mirrors the core crate's `Bound`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Bound<K> {
    /// `-∞`: head sentinel key.
    NegInf,
    /// A user key.
    Key(K),
    /// `+∞`: tail sentinel key.
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

    /// How this bound orders against the user key `k` (`-∞` before
    /// every key, `+∞` after).
    fn cmp_key(&self, k: &K) -> std::cmp::Ordering
    where
        K: Ord,
    {
        match self {
            Bound::NegInf => std::cmp::Ordering::Less,
            Bound::PosInf => std::cmp::Ordering::Greater,
            Bound::Key(nk) => nk.cmp(k),
        }
    }

    /// The user key of a node that must hold one.
    fn into_key(self) -> K {
        match self {
            Bound::Key(k) => k,
            _ => unreachable!("sentinels are never handed back"),
        }
    }
}

/// One public operation: `body` inside one `lf_metrics` op boundary.
#[inline]
fn metered<T>(body: impl FnOnce() -> T) -> T {
    let op = lf_metrics::op_begin();
    let r = body();
    lf_metrics::op_end(op);
    r
}
