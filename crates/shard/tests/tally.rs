//! The handle-local partition tally, on both tiers (`lf-map`'s
//! `BucketMap` and `ShardedSkipList`): per-partition `ops` are exact
//! once the writers are joined, the merged hop / CAS-retry sums are
//! the very steps the thread counters saw, and a live handle's counts
//! are visible without dropping it.
//!
//! `lf-metrics` state is process-global, so the tests serialize on one
//! lock.

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread;

use lf_map::BucketMap;
use lf_metrics::{Registry, Structure, TallySnapshot, Telemetry};
use lf_shard::ShardedSkipList;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

const THREADS: u64 = 4;
const OPS: u64 = if cfg!(miri) { 150 } else { 10_000 };

/// `OPS` mixed operations over 64 contended keys through `$h`.
macro_rules! mixed_ops {
    ($h:expr, $thread:expr) => {
        for i in 0..OPS {
            let key = (i * 7 + $thread) % 64;
            match i % 4 {
                0 => drop($h.insert(key, i)),
                1 => drop($h.remove(&key)),
                2 => drop($h.get(&key)),
                _ => drop($h.contains(&key)),
            }
        }
    };
}

fn assert_tally_matches_counters(snap: &TallySnapshot, tel: &Telemetry, structure: Structure) {
    let total = THREADS * OPS;
    assert_eq!(snap.per_partition.iter().map(|p| p.ops).sum::<u64>(), total);
    let merged = snap.merged();
    assert_eq!(merged.ops, total);
    assert_eq!(merged.hops.count(), total);
    assert_eq!(merged.cas_retries.count(), total);
    assert_eq!(tel.counters.ops_for(structure), total);
    assert_eq!(merged.hops.sum(), tel.counters.curr_updates);
    assert_eq!(merged.cas_retries.sum(), tel.counters.cas_failures());
    assert!(merged.hops.max() <= merged.hops.sum());
    assert!(merged.hops.p50() <= merged.hops.p99());
    assert!(merged.hops.p99() <= merged.hops.max());
}

#[test]
fn bucket_map_tally_is_exact_once_joined() {
    let _g = serial();
    let map: BucketMap<u64, u64> = BucketMap::new(16);
    let ((), tel) = Registry::join_and_snapshot(|| {
        thread::scope(|s| {
            for t in 0..THREADS {
                let map = &map;
                s.spawn(move || {
                    let h = map.handle();
                    mixed_ops!(h, t);
                });
            }
        });
    });
    assert_tally_matches_counters(&map.snapshot(), &tel, Structure::Map);
}

#[test]
fn sharded_skiplist_tally_is_exact_once_joined() {
    let _g = serial();
    let map: ShardedSkipList<u64, u64> = ShardedSkipList::new(4);
    let ((), tel) = Registry::join_and_snapshot(|| {
        thread::scope(|s| {
            for t in 0..THREADS {
                let map = &map;
                s.spawn(move || {
                    let h = map.handle();
                    mixed_ops!(h, t);
                });
            }
        });
    });
    assert_tally_matches_counters(&map.snapshot(), &tel, Structure::SkipList);
}

#[test]
fn live_and_dropped_handles_both_show_in_a_snapshot() {
    let _g = serial();
    let buckets: BucketMap<u64, u64> = BucketMap::new(8);
    let shards: ShardedSkipList<u64, u64> = ShardedSkipList::new(4);
    let (hb, hs) = (buckets.handle(), shards.handle());
    for k in 0..10u64 {
        assert!(hb.insert(k, k).is_ok());
        assert!(hs.insert(k, k).is_ok());
    }
    // Both handles are still alive.
    assert_eq!(buckets.snapshot().merged().ops, 10);
    assert_eq!(shards.snapshot().merged().ops, 10);
    for (i, p) in buckets.snapshot().per_partition.iter().enumerate() {
        assert_eq!(p.ops as usize, p.occupancy, "bucket {i}");
    }

    // A dropped handle's counts stay; its successor adds to them.
    drop((hb, hs));
    assert_eq!(buckets.handle().get(&3), Some(3));
    assert_eq!(shards.handle().get(&3), Some(3));
    assert_eq!(buckets.snapshot().merged().ops, 11);
    assert_eq!(shards.snapshot().merged().ops, 11);
}
