//! Per-partition step tallies: which shard or bucket the traversal
//! work and contention of routed operations landed on.
//!
//! The thread shards count steps by *thread*; a partitioned structure
//! (`lf-map`'s buckets, `lf-shard`'s shards) re-buckets them by *data
//! partition*. Each operation handle owns a [`TallyWriter`] — one
//! 256-byte cell per partition, bumped with the thread shards'
//! owner-only load+store, so a routed operation does no RMW and writes
//! no line another handle writes. The structure's [`PartitionTally`]
//! keeps every block it handed out (a dropped handle's is lent to the
//! next, counts and all) and [`PartitionTally::snapshot`] sums them:
//! racy-fresh while writers run, exact once they are joined. An empty
//! tally allocates nothing.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::{owner_add, OpSteps};

/// Slots of a [`StepDist`]: slot 0 holds the value 0 and slot `k` the
/// values of bit length `k` (`2^(k-1) ..= 2^k - 1`); the last slot
/// also takes everything longer.
const SLOTS: usize = 14;

#[inline]
fn slot_of(v: u64) -> usize {
    ((u64::BITS - v.leading_zeros()) as usize).min(SLOTS - 1)
}

/// A compact distribution of per-operation step counts: 14 inline
/// power-of-two slots plus the exact sum and maximum. Percentiles are
/// reported as the upper end of the slot holding the rank (exact for
/// 0 and 1), never above the maximum.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StepDist {
    sum: u64,
    max: u64,
    slots: [u64; SLOTS],
}

impl StepDist {
    /// Number of recorded operations.
    pub fn count(&self) -> u64 {
        self.slots.iter().sum()
    }

    /// Exact sum of the recorded step counts.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact largest recorded step count (0 if empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The step count at percentile `p` (`0.0..=100.0`; 0 if empty).
    pub fn percentile(&self, p: f64) -> u64 {
        let count = self.count();
        let target = (((p / 100.0) * count as f64).ceil() as u64).clamp(1, count.max(1));
        let mut acc = 0u64;
        for (k, &c) in self.slots.iter().enumerate() {
            acc += c;
            if acc >= target && k < SLOTS - 1 {
                return ((1u64 << k) - 1).min(self.max);
            }
        }
        // The open-ended last slot (or nothing recorded at all).
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// Fold `other`'s observations into `self`.
    pub fn merge(&mut self, other: &StepDist) {
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        for (dst, src) in self.slots.iter_mut().zip(other.slots) {
            *dst += src;
        }
    }
}

/// The live, single-writer form of a [`StepDist`].
#[derive(Default)]
struct DistCell {
    sum: AtomicU64,
    max: AtomicU64,
    slots: [AtomicU64; SLOTS],
}

impl DistCell {
    #[inline]
    fn record(&self, v: u64) {
        owner_add(&self.slots[slot_of(v)], 1);
        if v != 0 {
            owner_add(&self.sum, v);
            // ord: Relaxed — MET.shard: single-writer counter, snapshots racy-fresh
            if v > self.max.load(Ordering::Relaxed) {
                // ord: Relaxed — MET.shard: single-writer counter, snapshots racy-fresh
                self.max.store(v, Ordering::Relaxed);
            }
        }
    }

    fn add_into(&self, dst: &mut StepDist) {
        // ord: Relaxed — MET.shard: single-writer counter, snapshots racy-fresh
        dst.sum += self.sum.load(Ordering::Relaxed);
        // ord: Relaxed — MET.shard: single-writer counter, snapshots racy-fresh
        dst.max = dst.max.max(self.max.load(Ordering::Relaxed));
        for (d, s) in dst.slots.iter_mut().zip(self.slots.iter()) {
            // ord: Relaxed — MET.shard: single-writer counter, snapshots racy-fresh
            *d += s.load(Ordering::Relaxed);
        }
    }
}

/// One partition's cell in one writer's block. Cache-line aligned so
/// each distribution's sum, maximum and low slots share one line.
#[derive(Default)]
#[repr(align(64))]
struct Cell {
    hops: DistCell,
    cas_retries: DistCell,
}

/// The per-partition tallies of one partitioned structure; see the
/// [module docs](self).
pub struct PartitionTally {
    partitions: usize,
    /// Every block handed out so far. One with no other owner belongs
    /// to a dropped writer and is lent to the next.
    blocks: Mutex<Vec<Arc<[Cell]>>>,
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
            let fresh: Arc<[Cell]> = (0..self.partitions).map(|_| Cell::default()).collect();
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
            .map(|i| {
                let mut s = PartitionSnapshot {
                    occupancy: occupancy(i),
                    ..PartitionSnapshot::default()
                };
                for block in blocks.iter() {
                    block[i].hops.add_into(&mut s.hops);
                    block[i].cas_retries.add_into(&mut s.cas_retries);
                }
                s.ops = s.hops.count();
                s
            })
            .collect();
        TallySnapshot { per_partition }
    }
}

/// A handle's write side of a [`PartitionTally`]. Not `Sync`: the
/// load+store bumps are exact only with one writer per block.
pub struct TallyWriter {
    block: Arc<[Cell]>,
    _single_writer: PhantomData<std::cell::Cell<()>>,
}

impl TallyWriter {
    /// Credit one routed operation's steps to `partition`.
    #[inline]
    pub fn record(&self, partition: usize, steps: OpSteps) {
        let cell = &self.block[partition];
        cell.hops.record(steps.hops);
        cell.cas_retries.record(steps.cas_retries);
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
    /// Search hops (`curr` advances) per routed operation.
    pub hops: StepDist,
    /// Failed C&S attempts per routed operation.
    pub cas_retries: StepDist,
}

/// Statistics of every partition of a structure, in index order.
#[derive(Clone, Debug)]
pub struct TallySnapshot {
    /// Per-partition snapshots, indexed by partition.
    pub per_partition: Vec<PartitionSnapshot>,
}

impl TallySnapshot {
    /// Fold all partitions into one structure-wide snapshot: counts
    /// and occupancies sum, distributions merge.
    #[must_use]
    pub fn merged(&self) -> PartitionSnapshot {
        let mut all = PartitionSnapshot::default();
        for s in &self.per_partition {
            all.ops += s.ops;
            all.occupancy += s.occupancy;
            all.hops.merge(&s.hops);
            all.cas_retries.merge(&s.cas_retries);
        }
        all
    }

    /// Largest per-partition share of total routed ops, in `[1/P, 1.0]`
    /// (1/P is perfectly even; 0.0 if none) — the contention balance.
    #[must_use]
    pub fn max_ops_share(&self) -> f64 {
        max_share(self.per_partition.iter().map(|s| s.ops))
    }

    /// Largest per-partition share of total resident keys (0.0 if
    /// empty) — a hash map's chain-length balance: near 1.0, one chain
    /// holds most of the map and point ops cost what a single list does.
    #[must_use]
    pub fn max_occupancy_share(&self) -> f64 {
        max_share(self.per_partition.iter().map(|s| s.occupancy as u64))
    }
}

fn max_share(values: impl Iterator<Item = u64> + Clone) -> f64 {
    let total: u64 = values.clone().sum();
    if total == 0 {
        return 0.0;
    }
    values.max().unwrap_or(0) as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn steps(hops: u64, cas_retries: u64) -> OpSteps {
        OpSteps {
            hops,
            cas_retries,
            backlinks: 0,
        }
    }

    #[test]
    fn cells_fill_whole_cache_lines() {
        assert_eq!(std::mem::align_of::<Cell>(), 64);
        assert_eq!(std::mem::size_of::<Cell>(), 256);
    }

    #[test]
    fn dist_keeps_count_sum_max_and_slot_percentiles() {
        let tally = PartitionTally::new(1);
        let w = tally.writer();
        for v in [0, 0, 0, 1, 1, 2, 3, 9, 5000] {
            w.record(0, steps(v, 0));
        }
        let s = tally.snapshot(|_| 0).per_partition[0];
        assert_eq!(s.ops, 9);
        assert_eq!(s.hops.count(), 9);
        assert_eq!(s.hops.sum(), 1 + 1 + 2 + 3 + 9 + 5000);
        assert_eq!(s.hops.max(), 5000);
        assert_eq!(s.hops.percentile(0.0), 0);
        assert_eq!(s.hops.p50(), 1);
        // 2 and 3 share the slot whose upper end is 3.
        assert_eq!(s.hops.percentile(70.0), 3);
        // The overflow slot reports the exact maximum.
        assert_eq!(s.hops.p99(), 5000);
        assert_eq!(s.cas_retries.count(), 9);
        assert_eq!(s.cas_retries.p99(), 0);
        assert_eq!(StepDist::default().p99(), 0);
    }

    #[test]
    fn snapshot_sums_live_and_dropped_writers_and_reuses_blocks() {
        let tally = PartitionTally::new(4);
        assert!(tally.blocks.lock().unwrap().is_empty());
        let a = tally.writer();
        let b = tally.writer();
        a.record(1, steps(3, 1));
        b.record(1, steps(5, 0));
        b.record(2, steps(0, 0));
        let snap = tally.snapshot(|i| i * 10);
        assert_eq!(snap.per_partition[1].ops, 2);
        assert_eq!(snap.per_partition[1].hops.sum(), 8);
        assert_eq!(snap.per_partition[1].cas_retries.sum(), 1);
        assert_eq!(snap.per_partition[2].occupancy, 20);
        assert_eq!(snap.merged().ops, 3);
        assert_eq!(snap.max_ops_share(), 2.0 / 3.0);
        assert_eq!(snap.max_occupancy_share(), 0.5);

        // A dropped writer's counts stay, and its block is lent on.
        drop(a);
        let c = tally.writer();
        assert_eq!(tally.blocks.lock().unwrap().len(), 2);
        c.record(1, steps(1, 0));
        let snap = tally.snapshot(|_| 0);
        assert_eq!(snap.per_partition[1].ops, 3);
        assert_eq!(snap.per_partition[1].hops.sum(), 9);
        assert_eq!(snap.per_partition[1].hops.max(), 5);
    }

    #[test]
    fn joined_writers_are_counted_exactly() {
        let tally = PartitionTally::new(8);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let tally = &tally;
                s.spawn(move || {
                    let w = tally.writer();
                    for i in 0..1000u64 {
                        w.record(((i + t) % 8) as usize, steps(i % 7, i % 2));
                    }
                });
            }
        });
        let merged = tally.snapshot(|_| 0).merged();
        assert_eq!(merged.ops, 4000);
        assert_eq!(
            merged.hops.sum(),
            4 * (0..1000u64).map(|i| i % 7).sum::<u64>()
        );
        assert_eq!(merged.cas_retries.sum(), 2000);
    }
}
