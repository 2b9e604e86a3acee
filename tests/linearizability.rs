//! Cross-structure linearizability smoke tests.
//!
//! Full linearizability checking is out of scope, but set semantics
//! give strong checkable facts under concurrency:
//!
//! * for each key, successful inserts and removes must alternate, so
//!   `#ins_ok − #rem_ok ∈ {0, 1}` and equals the key's final presence;
//! * racing inserts of one key produce exactly one winner, likewise
//!   racing removes of a present key.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lf_shard::{ShardedMap, ShardedSkipList};
use lockfree_lists::baselines::{
    CoarseLockList, HarrisList, HohLockList, LockSkipList, MichaelList, NoFlagList, RestartSkipList,
};
use lockfree_lists::map::BucketMap;
use lockfree_lists::{ConcurrentMap, FrList, MapHandle, SkipList};

/// Generic per-key accounting stress: threads randomly insert/remove
/// over a small hot key space; afterwards, per-key winner counts must
/// explain the final contents exactly.
fn per_key_accounting<M: ConcurrentMap<Key = u64, Value = u64>>(map: M) {
    const KEYS: usize = 16;
    const THREADS: u64 = 4;
    const OPS: u64 = 2_000;

    let ins_ok: Vec<AtomicU64> = (0..KEYS).map(|_| AtomicU64::new(0)).collect();
    let rem_ok: Vec<AtomicU64> = (0..KEYS).map(|_| AtomicU64::new(0)).collect();

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (map, ins_ok, rem_ok) = (&map, &ins_ok, &rem_ok);
            s.spawn(move || {
                let h = map.handle();
                let mut x = t.wrapping_mul(0x9E3779B97F4A7C15) | 1;
                for _ in 0..OPS {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(99);
                    let k = ((x >> 33) as usize) % KEYS;
                    let key = k as u64;
                    if (x >> 7) & 1 == 0 {
                        if h.insert(key, key).is_ok() {
                            ins_ok[k].fetch_add(1, Ordering::SeqCst);
                        }
                    } else if h.remove(&key).is_some() {
                        rem_ok[k].fetch_add(1, Ordering::SeqCst);
                    }
                }
            });
        }
    });

    let h = map.handle();
    for k in 0..KEYS {
        let i = ins_ok[k].load(Ordering::SeqCst);
        let r = rem_ok[k].load(Ordering::SeqCst);
        let present = h.contains(&(k as u64));
        assert!(
            i == r || i == r + 1,
            "key {k}: {i} successful inserts vs {r} successful removes"
        );
        assert_eq!(
            present,
            i == r + 1,
            "key {k}: presence disagrees with win counts ({i} ins, {r} rem)"
        );
    }
}

#[test]
fn fr_list_per_key_accounting() {
    per_key_accounting(FrList::<u64, u64>::new());
}

#[test]
fn fr_skiplist_per_key_accounting() {
    per_key_accounting(SkipList::<u64, u64>::new());
}

#[test]
fn bucket_map_per_key_accounting() {
    per_key_accounting(BucketMap::<u64, u64>::new(4));
}

#[test]
fn sharded_skiplist_per_key_accounting() {
    per_key_accounting(ShardedSkipList::<u64, u64>::new(4));
}

#[test]
fn sharded_map_per_key_accounting() {
    per_key_accounting(ShardedMap::<u64, u64>::new(2, 4));
}

#[test]
fn harris_per_key_accounting() {
    per_key_accounting(HarrisList::<u64, u64>::new());
}

#[test]
fn michael_per_key_accounting() {
    per_key_accounting(MichaelList::<u64, u64>::new());
}

#[test]
fn noflag_per_key_accounting() {
    per_key_accounting(NoFlagList::<u64, u64>::new());
}

#[test]
fn coarse_lock_per_key_accounting() {
    per_key_accounting(CoarseLockList::<u64, u64>::new());
}

#[test]
fn hoh_lock_per_key_accounting() {
    per_key_accounting(HohLockList::<u64, u64>::new());
}

#[test]
fn lock_skiplist_per_key_accounting() {
    per_key_accounting(LockSkipList::<u64, u64>::new());
}

#[test]
fn restart_skiplist_per_key_accounting() {
    per_key_accounting(RestartSkipList::<u64, u64>::new());
}

/// A successful remove must return the value the winning insert wrote.
#[test]
fn removed_value_matches_winning_insert() {
    const ROUNDS: u64 = 300;
    let map = Arc::new(SkipList::<u64, u64>::new());
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let map = map.clone();
            s.spawn(move || {
                let h = map.handle();
                for r in 0..ROUNDS {
                    let k = r % 8;
                    // Value encodes the writer; any reader must see a
                    // complete (k, writer-tagged) pair.
                    if h.insert(k, t * 1000 + k).is_ok() {
                        if let Some(v) = h.remove(&k) {
                            assert_eq!(v % 1000, k, "torn value {v} for key {k}");
                            assert!(v / 1000 < 4, "corrupt writer tag in {v}");
                        }
                    } else if let Some(v) = h.get(&k) {
                        assert_eq!(v % 1000, k, "value {v} not for key {k}");
                        assert!(v / 1000 < 4, "corrupt writer tag in {v}");
                    }
                }
            });
        }
    });
}

/// Reads in the same thread observe that thread's completed writes
/// (program order): insert → contains, remove → !contains.
#[test]
fn program_order_visibility() {
    let map = Arc::new(FrList::<u64, u64>::new());
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let map = map.clone();
            s.spawn(move || {
                let h = map.handle();
                // Thread-private key range: no interference.
                let base = t * 1_000;
                for i in 0..200 {
                    let k = base + i;
                    assert!(h.insert(k, i).is_ok());
                    assert!(h.contains(&k), "own insert invisible");
                    assert_eq!(h.get(&k), Some(i));
                    assert_eq!(h.remove(&k), Some(i));
                    assert!(!h.contains(&k), "own remove invisible");
                }
            });
        }
    });
    assert!(map.is_empty());
}
