//! The per-shard op counts `Sharded` keeps for both tiers
//! (`ShardedMap` and `ShardedSkipList`): per-shard `ops` are exact once
//! the writers are joined and sum to the ops the thread counters
//! attributed to the tier's structure, and a live handle's counts are
//! visible without dropping it.
//!
//! `lf-metrics` state is process-global, so the tests serialize on one
//! lock.

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread;

use lf_core::{ConcurrentMap, MapHandle};
use lf_metrics::{Registry, Structure, TallySnapshot};
use lf_shard::{ShardedMap, ShardedSkipList};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

const THREADS: u64 = 4;
const OPS: u64 = if cfg!(miri) { 150 } else { 10_000 };

/// `OPS` mixed operations over 64 contended keys from each of
/// `THREADS` joined threads; returns the ops the thread counters
/// attributed to `structure` meanwhile.
fn mixed_ops<M>(map: &M, structure: Structure) -> u64
where
    M: ConcurrentMap<Key = u64, Value = u64> + Sync,
{
    let ((), tel) = Registry::join_and_snapshot(|| {
        thread::scope(|s| {
            for t in 0..THREADS {
                s.spawn(move || {
                    let h = map.handle();
                    for i in 0..OPS {
                        let key = (i * 7 + t) % 64;
                        match i % 4 {
                            0 => drop(h.insert(key, i)),
                            1 => drop(h.remove(&key)),
                            2 => drop(h.get(&key)),
                            _ => drop(h.contains(&key)),
                        }
                    }
                });
            }
        });
    });
    tel.counters.ops_for(structure)
}

/// Per-shard counts, in index order.
fn ops(shards: &TallySnapshot) -> Vec<u64> {
    shards.per_partition.iter().map(|p| p.ops).collect()
}

fn assert_exact(per_shard: &[u64], counted: u64) {
    let total = THREADS * OPS;
    assert_eq!(per_shard.iter().sum::<u64>(), total);
    assert_eq!(counted, total);
    // 64 keys over the shards: every shard took some of the ops.
    assert!(per_shard.iter().all(|&n| n > 0), "{per_shard:?}");
}

#[test]
fn sharded_map_shard_ops_are_exact_once_joined() {
    let _g = serial();
    let map: ShardedMap<u64, u64> = ShardedMap::new(4, 16);
    let counted = mixed_ops(&map, Structure::Map);
    let per_shard: Vec<u64> = map.snapshot().iter().map(|s| s.merged().ops).collect();
    assert_eq!(per_shard.len(), 4);
    assert_exact(&per_shard, counted);
}

#[test]
fn sharded_skiplist_shard_ops_are_exact_once_joined() {
    let _g = serial();
    let map: ShardedSkipList<u64, u64> = ShardedSkipList::new(4);
    let counted = mixed_ops(&map, Structure::SkipList);
    let snap = map.snapshot();
    assert_eq!(snap.merged().ops, THREADS * OPS);
    assert_exact(&ops(&snap), counted);
}

#[test]
fn live_and_dropped_handles_both_show_in_a_snapshot() {
    let _g = serial();
    let hashed: ShardedMap<u64, u64> = ShardedMap::new(4, 8);
    let ordered: ShardedSkipList<u64, u64> = ShardedSkipList::new(4);
    let map_ops = || -> u64 { hashed.snapshot().iter().map(|s| s.merged().ops).sum() };
    let (hh, ho) = (hashed.handle(), ordered.handle());
    for k in 0..10u64 {
        assert!(hh.insert(k, k).is_ok());
        assert!(ho.insert(k, k).is_ok());
    }
    // Both handles are still alive.
    assert_eq!(map_ops(), 10);
    assert_eq!(ordered.snapshot().merged().ops, 10);
    for (i, s) in hashed.snapshot().iter().enumerate() {
        let s = s.merged();
        assert_eq!(s.ops as usize, s.occupancy, "map shard {i}");
    }
    for (i, s) in ordered.snapshot().per_partition.iter().enumerate() {
        assert_eq!(s.ops as usize, s.occupancy, "skip shard {i}");
    }

    // A dropped handle's counts stay; its successor adds to them.
    drop((hh, ho));
    assert_eq!(hashed.handle().get(&3), Some(3));
    assert_eq!(ordered.handle().get(&3), Some(3));
    assert_eq!(map_ops(), 11);
    assert_eq!(ordered.snapshot().merged().ops, 11);
    let three = ordered.shard_of(&3);
    assert_eq!(
        ordered.snapshot().per_partition[three].ops as usize,
        ordered.snapshot().per_partition[three].occupancy + 1
    );
    let three = hashed.shard_of(&3);
    let s = hashed.snapshot()[three].merged();
    assert_eq!(s.ops as usize, s.occupancy + 1);
}
