//! A lock-free priority queue over the skip list — the application the
//! paper's related work (§2) highlights: Lotan–Shavit and
//! Sundell–Tsigas built their concurrent priority queues exactly this
//! way, from a skip-list dictionary with a *DeleteMin*.
//!
//! Duplicate priorities are allowed: each pushed item receives a
//! monotonically increasing sequence number, so entries are keyed by
//! the unique pair `(priority, seq)` and equal priorities pop in FIFO
//! order.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::skiplist::{SkipList, SkipListHandle};
use crate::MapHandle;

/// A lock-free min-priority queue.
///
/// # Examples
///
/// ```
/// use lf_core::PriorityQueue;
///
/// let pq = PriorityQueue::new();
/// let h = pq.handle();
/// h.push(5, "low");
/// h.push(1, "high");
/// h.push(5, "low too");
/// assert_eq!(h.pop(), Some((1, "high")));
/// assert_eq!(h.pop(), Some((5, "low")));      // FIFO among equal priorities
/// assert_eq!(h.pop(), Some((5, "low too")));
/// assert_eq!(h.pop(), None);
/// ```
pub struct PriorityQueue<P, T> {
    inner: SkipList<(P, u64), T>,
    seq: AtomicU64,
}

impl<P, T> fmt::Debug for PriorityQueue<P, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PriorityQueue")
            .field("len", &self.inner.len())
            .finish()
    }
}

impl<P, T> Default for PriorityQueue<P, T>
where
    P: Ord + Send + Sync + 'static,
    T: Send + Sync + 'static,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<P, T> PriorityQueue<P, T>
where
    P: Ord + Send + Sync + 'static,
    T: Send + Sync + 'static,
{
    /// Create an empty queue.
    pub fn new() -> Self {
        PriorityQueue {
            inner: SkipList::new(),
            seq: AtomicU64::new(0),
        }
    }

    /// Register the calling thread and return an operation handle.
    pub fn handle(&self) -> PqHandle<'_, P, T> {
        PqHandle {
            queue: self,
            inner: self.inner.handle(),
        }
    }

    /// Number of queued items (exact when quiescent).
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the queue is empty (same caveat as [`len`](Self::len)).
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

/// Per-thread handle to a [`PriorityQueue`]. Not `Send`.
pub struct PqHandle<'q, P, T> {
    queue: &'q PriorityQueue<P, T>,
    inner: SkipListHandle<'q, (P, u64), T>,
}

impl<P, T> fmt::Debug for PqHandle<'_, P, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("PqHandle")
    }
}

impl<P, T> PqHandle<'_, P, T>
where
    P: Ord + Send + Sync + 'static,
    T: Send + Sync + 'static,
{
    /// Enqueue `item` with `priority` (lower pops first).
    pub fn push(&self, priority: P, item: T) {
        // Relaxed: only uniqueness of the tickets matters (the RMW's
        // atomicity alone guarantees that); FIFO among equal priorities
        // needs nothing more — concurrent pushes are unordered anyway.
        // ord: Relaxed — PQ.ticket: uniqueness via RMW atomicity alone
        let seq = self.queue.seq.fetch_add(1, Ordering::Relaxed);
        self.inner
            .insert((priority, seq), item)
            .unwrap_or_else(|_| unreachable!("(priority, seq) keys are unique"));
    }

    /// Dequeue an item that had minimal priority at some moment during
    /// the call (lock-free DeleteMin; FIFO among equal priorities).
    pub fn pop(&self) -> Option<(P, T)>
    where
        P: Clone,
        T: Clone,
    {
        self.inner.pop_first().map(|((p, _), t)| (p, t))
    }

    /// The current minimum, without removing it (weakly consistent).
    pub fn peek(&self) -> Option<(P, T)>
    where
        P: Clone,
        T: Clone,
    {
        self.inner.first().map(|((p, _), t)| (p, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Arc;

    #[test]
    fn pops_in_priority_order() {
        let pq = PriorityQueue::new();
        let h = pq.handle();
        for p in [5, 1, 3, 2, 4] {
            h.push(p, p * 10);
        }
        let mut out = Vec::new();
        while let Some((p, v)) = h.pop() {
            assert_eq!(v, p * 10);
            out.push(p);
        }
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn fifo_among_equal_priorities() {
        let pq = PriorityQueue::new();
        let h = pq.handle();
        for i in 0..10 {
            h.push(7, i);
        }
        let popped: Vec<u32> = std::iter::from_fn(|| h.pop().map(|(_, v)| v)).collect();
        assert_eq!(popped, (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn peek_does_not_remove() {
        let pq = PriorityQueue::new();
        let h = pq.handle();
        h.push(2, "b");
        h.push(1, "a");
        assert_eq!(h.peek(), Some((1, "a")));
        assert_eq!(pq.len(), 2);
        assert_eq!(h.pop(), Some((1, "a")));
        assert_eq!(pq.len(), 1);
    }

    #[test]
    fn empty_pops_none() {
        let pq: PriorityQueue<u32, u32> = PriorityQueue::new();
        assert_eq!(pq.handle().pop(), None);
        assert_eq!(pq.handle().peek(), None);
        assert!(pq.is_empty());
    }

    #[test]
    #[cfg_attr(miri, ignore)] // O(n^2) delete-min contention: too slow interpreted
    fn concurrent_pops_each_item_exactly_once() {
        const ITEMS: u64 = 400;
        let pq = Arc::new(PriorityQueue::new());
        {
            let h = pq.handle();
            for i in 0..ITEMS {
                h.push(i % 16, i);
            }
        }
        let popped: Vec<(u64, u64)> = {
            let mut all = Vec::new();
            let chunks = std::sync::Mutex::new(&mut all);
            std::thread::scope(|s| {
                for _ in 0..4 {
                    let pq = pq.clone();
                    let chunks = &chunks;
                    s.spawn(move || {
                        let h = pq.handle();
                        let mut mine = Vec::new();
                        while let Some(it) = h.pop() {
                            mine.push(it);
                        }
                        chunks.lock().unwrap().extend(mine);
                    });
                }
            });
            all
        };
        assert_eq!(popped.len(), ITEMS as usize);
        let ids: HashSet<u64> = popped.iter().map(|&(_, v)| v).collect();
        assert_eq!(ids.len(), ITEMS as usize, "an item popped twice or lost");
        assert!(pq.is_empty());
    }

    #[test]
    #[cfg_attr(miri, ignore)] // unbounded idle-polling loop: too slow interpreted
    fn concurrent_push_pop_churn() {
        let pq = Arc::new(PriorityQueue::new());
        let popped = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let pushed = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let pq = pq.clone();
                let pushed = pushed.clone();
                s.spawn(move || {
                    let h = pq.handle();
                    for i in 0..500 {
                        h.push((t * 500 + i) % 32, i);
                        pushed.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
            for _ in 0..2 {
                let pq = pq.clone();
                let popped = popped.clone();
                s.spawn(move || {
                    let h = pq.handle();
                    let mut idle = 0;
                    while idle < 1000 {
                        if h.pop().is_some() {
                            popped.fetch_add(1, Ordering::SeqCst);
                            idle = 0;
                        } else {
                            idle += 1;
                            std::thread::yield_now();
                        }
                    }
                });
            }
        });
        let remaining = pq.len();
        assert_eq!(
            popped.load(Ordering::SeqCst) + remaining,
            pushed.load(Ordering::SeqCst)
        );
    }
}
