//! Per-partition op counts: how many routed operations landed on each
//! shard of a partitioned structure (`lf-shard`'s `Sharded`).
//!
//! The thread shards count steps by *thread*; the step distributions
//! (`n(S)` hops, `c(S)` retries) live in their per-structure
//! histograms. What a partitioned structure adds is the one figure the
//! thread shards cannot split: which partition each operation was
//! credited to. Each operation handle owns a [`TallyWriter`] — one
//! `u64` counter per partition, padded to whole cache lines and bumped
//! with the thread shards' owner-only load+store, so a routed operation
//! does no RMW and writes no line another handle writes. The
//! structure's [`PartitionTally`] keeps every block it handed out (a
//! dropped handle's is lent to the next, counts and all) and
//! [`PartitionTally::snapshot`] sums them: racy-fresh while writers
//! run, exact once they are joined. An empty tally allocates nothing.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::owner_bump;

/// Counters per cache line of a writer's block.
const PER_LINE: usize = 8;

/// One cache line of a writer's block: the op counters of
/// [`PER_LINE`] consecutive partitions.
#[derive(Default)]
#[repr(align(64))]
struct Line([AtomicU64; PER_LINE]);

/// The per-partition op counts of one partitioned structure; see the
/// [module docs](self).
pub struct PartitionTally {
    partitions: usize,
    /// Every block handed out so far. One with no other owner belongs
    /// to a dropped writer and is lent to the next.
    blocks: Mutex<Vec<Arc<[Line]>>>,
}

impl PartitionTally {
    /// An empty tally over `partitions` partitions. Allocates nothing.
    pub fn new(partitions: usize) -> Self {
        PartitionTally {
            partitions,
            blocks: Mutex::new(Vec::new()),
        }
    }

    /// Register a writer (cold path: takes the registry lock, and
    /// allocates a block unless a dropped writer left one behind).
    pub fn writer(&self) -> TallyWriter {
        let mut blocks = self.blocks.lock().unwrap_or_else(PoisonError::into_inner);
        // `get_mut` succeeding proves the registry is the block's only
        // owner, and acquires its last writer's release on drop, so the
        // next writer's load+store bumps build on every earlier count.
        let free = blocks
            .iter_mut()
            .find_map(|b| Arc::get_mut(b).is_some().then(|| Arc::clone(b)));
        let block = free.unwrap_or_else(|| {
            let lines = self.partitions.div_ceil(PER_LINE);
            let fresh: Arc<[Line]> = (0..lines).map(|_| Line::default()).collect();
            blocks.push(Arc::clone(&fresh));
            fresh
        });
        TallyWriter {
            block,
            _single_writer: PhantomData,
        }
    }

    /// Sum every block into one [`PartitionSnapshot`] per partition;
    /// `occupancy(i)` supplies partition `i`'s resident key count.
    pub fn snapshot(&self, occupancy: impl Fn(usize) -> usize) -> TallySnapshot {
        let blocks = self.blocks.lock().unwrap_or_else(PoisonError::into_inner);
        let per_partition = (0..self.partitions)
            .map(|i| PartitionSnapshot {
                ops: blocks
                    .iter()
                    // ord: Relaxed — MET.shard: single-writer counter, snapshots racy-fresh
                    .map(|b| counter(b, i).load(Ordering::Relaxed))
                    .sum(),
                occupancy: occupancy(i),
            })
            .collect();
        TallySnapshot { per_partition }
    }
}

/// Partition `i`'s counter in `block`.
#[inline]
fn counter(block: &[Line], i: usize) -> &AtomicU64 {
    &block[i / PER_LINE].0[i % PER_LINE]
}

/// A handle's write side of a [`PartitionTally`]. Not `Sync`: the
/// load+store bumps are exact only with one writer per block.
pub struct TallyWriter {
    block: Arc<[Line]>,
    _single_writer: PhantomData<std::cell::Cell<()>>,
}

impl TallyWriter {
    /// Credit one routed operation to `partition`.
    #[inline]
    pub fn bump(&self, partition: usize) {
        owner_bump(counter(&self.block, partition));
    }
}

/// Statistics of one partition (or, merged, of the whole structure):
/// racy-fresh while writers run, exact once they are joined.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PartitionSnapshot {
    /// Operations routed to this partition since creation.
    pub ops: u64,
    /// Keys resident in the partition when the snapshot was taken.
    pub occupancy: usize,
}

/// Statistics of every partition of a structure, in index order.
#[derive(Clone, Debug)]
pub struct TallySnapshot {
    /// Per-partition snapshots, indexed by partition.
    pub per_partition: Vec<PartitionSnapshot>,
}

impl TallySnapshot {
    /// Fold all partitions into one structure-wide snapshot: counts
    /// and occupancies sum.
    #[must_use]
    pub fn merged(&self) -> PartitionSnapshot {
        let mut all = PartitionSnapshot::default();
        for s in &self.per_partition {
            all.ops += s.ops;
            all.occupancy += s.occupancy;
        }
        all
    }

    /// Largest per-partition share of total routed ops, in `[1/P, 1.0]`
    /// (1/P is perfectly even; 0.0 if none) — the contention balance.
    #[must_use]
    pub fn max_ops_share(&self) -> f64 {
        let ops = self.per_partition.iter().map(|s| s.ops);
        let total: u64 = ops.clone().sum();
        if total == 0 {
            return 0.0;
        }
        ops.max().unwrap_or(0) as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_fill_whole_cache_lines() {
        assert_eq!(std::mem::align_of::<Line>(), 64);
        assert_eq!(std::mem::size_of::<Line>(), 64);
        let tally = PartitionTally::new(9);
        let _w = tally.writer();
        assert_eq!(tally.blocks.lock().unwrap()[0].len(), 2);
    }

    #[test]
    fn snapshot_sums_live_and_dropped_writers_and_reuses_blocks() {
        let tally = PartitionTally::new(12);
        assert!(tally.blocks.lock().unwrap().is_empty());
        let a = tally.writer();
        let b = tally.writer();
        a.bump(1);
        b.bump(1);
        b.bump(10);
        let snap = tally.snapshot(|i| i * 10);
        assert_eq!(snap.per_partition[1].ops, 2);
        assert_eq!(snap.per_partition[10].ops, 1);
        assert_eq!(snap.per_partition[2].occupancy, 20);
        assert_eq!(snap.merged().ops, 3);
        assert_eq!(snap.merged().occupancy, 660);
        assert_eq!(snap.max_ops_share(), 2.0 / 3.0);

        // A dropped writer's counts stay, and its block is lent on.
        drop(a);
        let c = tally.writer();
        assert_eq!(tally.blocks.lock().unwrap().len(), 2);
        c.bump(1);
        let snap = tally.snapshot(|_| 0);
        assert_eq!(snap.per_partition[1].ops, 3);
        assert_eq!(snap.merged().ops, 4);
        assert_eq!(PartitionTally::new(4).snapshot(|_| 0).max_ops_share(), 0.0);
    }

    #[test]
    fn joined_writers_are_counted_exactly() {
        let tally = PartitionTally::new(8);
        std::thread::scope(|s| {
            for t in 0..4usize {
                let tally = &tally;
                s.spawn(move || {
                    let w = tally.writer();
                    for i in 0..1000usize {
                        w.bump((i + t) % 8);
                    }
                });
            }
        });
        let snap = tally.snapshot(|_| 0);
        assert_eq!(snap.merged().ops, 4000);
        assert!(snap.per_partition.iter().all(|p| p.ops == 500));
    }

    #[test]
    fn blocks_handed_between_running_threads_lose_no_count() {
        // The one cross-thread hand-off: a writer dropped on one thread
        // while the other runs, its block reused there with no join in
        // between, only the `Arc` count the registry checks.
        const ROUNDS: u64 = if cfg!(miri) { 50 } else { 2000 };
        let tally = PartitionTally::new(2);
        std::thread::scope(|s| {
            for t in 0..2 {
                let tally = &tally;
                s.spawn(move || {
                    for _ in 0..ROUNDS {
                        tally.writer().bump(t);
                    }
                });
            }
        });
        assert!(tally.blocks.lock().unwrap().len() <= 2);
        let snap = tally.snapshot(|_| 0);
        assert_eq!(snap.per_partition[0].ops, ROUNDS);
        assert_eq!(snap.per_partition[1].ops, ROUNDS);
    }
}
