//! `ConcurrentMap` conformance: every structure of the stack, over both
//! an epoch-based (`Ebr`) and a version-based (`Vbr`) reclamation
//! backend, and the seven concurrent baselines, runs one seeded
//! sequential script through the trait alone (its provided `get`,
//! `remove` and `contains` included) and must agree with a
//! `BTreeMap` oracle on every reply, on the closures' call counts, on
//! partitioning, and on what `scan` shows.

use std::collections::BTreeMap;
use std::ops::Bound::{Excluded, Unbounded};

use lf_baselines::{
    CoarseLockList, HarrisList, HohLockList, LockSkipList, MichaelList, NoFlagList, RestartSkipList,
};
use lf_core::{ConcurrentMap, FrList, MapHandle, SkipList};
use lf_map::BucketMap;
use lf_shard::{ShardedMap, ShardedSkipList};
use lf_vbr::Vbr;

/// Distinct keys the script draws from.
const KEYS: u64 = 64;
/// Operations in the script.
const OPS: usize = if cfg!(miri) { 120 } else { 3_000 };

/// Run the script on `map`. `ordered` is the structure's expected
/// [`ConcurrentMap::ORDERED`]; `partition` is its own inherent routing
/// (`shard_of`/`bucket_of`), or `None` for a single structure.
fn conforms<M>(map: M, ordered: bool, partition: impl Fn(&M, &u64) -> Option<usize>)
where
    M: ConcurrentMap<Key = u64, Value = u64>,
{
    assert_eq!(M::ORDERED, ordered);
    let h = map.handle();
    let mut oracle = BTreeMap::new();
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..OPS {
        rng = rng
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let key = (rng >> 33) % KEYS;
        let value = rng >> 44;
        match (rng >> 20) % 4 {
            0 => match h.insert(key, value) {
                Ok(()) => assert_eq!(oracle.insert(key, value), None),
                Err(refused) => {
                    assert_eq!(
                        refused,
                        (key, value),
                        "a refused insert hands back its pair"
                    );
                    assert!(oracle.contains_key(&key));
                }
            },
            1 => {
                let mut calls = 0;
                let got = h.remove_with(&key, |v| {
                    calls += 1;
                    *v
                });
                assert_eq!(got, oracle.remove(&key));
                assert_eq!(calls, usize::from(got.is_some()), "remove_with closure");
            }
            2 => {
                let mut calls = 0;
                let got = h.get_with(&key, |v| {
                    calls += 1;
                    *v
                });
                assert_eq!(got, oracle.get(&key).copied());
                assert_eq!(calls, usize::from(got.is_some()), "get_with closure");
            }
            // The trait's provided forms, derived from the two above.
            _ => match (rng >> 24) % 3 {
                0 => assert_eq!(h.remove(&key), oracle.remove(&key)),
                1 => assert_eq!(h.get(&key), oracle.get(&key).copied()),
                _ => assert_eq!(h.contains(&key), oracle.contains_key(&key)),
            },
        }
        assert_eq!(map.partition_of(&key), partition(&map, &key));
        assert_eq!(map.len(), oracle.len());
    }
    assert!(!oracle.is_empty(), "the script leaves keys to scan");

    let scan = |after: Option<&u64>, stop_at: usize| {
        let mut seen = Vec::new();
        h.scan(after, &mut |k, v| {
            seen.push((*k, *v));
            seen.len() < stop_at
        });
        seen
    };
    let want = |after: u64| -> Vec<(u64, u64)> {
        if !ordered {
            return Vec::new();
        }
        oracle
            .range((Excluded(after), Unbounded))
            .map(|(k, v)| (*k, *v))
            .collect()
    };
    for after in 0..=KEYS {
        assert_eq!(scan(Some(&after), usize::MAX), want(after), "after {after}");
    }
    let all: Vec<_> = if ordered {
        oracle.iter().map(|(k, v)| (*k, *v)).collect()
    } else {
        Vec::new()
    };
    assert_eq!(scan(None, usize::MAX), all);
    // The visitor's `false` stops the walk at once.
    assert_eq!(scan(None, 3), all[..all.len().min(3)]);
}

#[test]
fn fr_list_conforms() {
    conforms(FrList::<u64, u64>::new(), true, |_, _| None);
    conforms(FrList::<u64, u64, Vbr>::with_backend(), true, |_, _| None);
}

#[test]
fn skip_list_conforms() {
    conforms(SkipList::<u64, u64>::new(), true, |_, _| None);
    conforms(SkipList::<u64, u64, Vbr>::with_backend(), true, |_, _| None);
}

#[test]
fn sharded_skip_list_conforms() {
    conforms(ShardedSkipList::<u64, u64>::new(4), true, |m, k| {
        Some(m.shard_of(k))
    });
    conforms(
        ShardedSkipList::<u64, u64, Vbr>::with_backend(4),
        true,
        |m, k| Some(m.shard_of(k)),
    );
}

#[test]
fn bucket_map_conforms() {
    conforms(BucketMap::<u64, u64>::new(8), false, |m, k| {
        Some(m.bucket_of(k))
    });
    conforms(
        BucketMap::<u64, u64, Vbr>::with_backend(8),
        false,
        |m, k| Some(m.bucket_of(k)),
    );
}

#[test]
fn sharded_map_conforms() {
    conforms(ShardedMap::<u64, u64>::new(4, 4), false, |m, k| {
        Some(m.shard_of(k))
    });
    conforms(
        ShardedMap::<u64, u64, Vbr>::with_backend(4, 4),
        false,
        |m, k| Some(m.shard_of(k)),
    );
}

/// The baselines keep the trait's unordered default (their `scan`
/// visits nothing) and are single structures. Not run under Miri: the
/// crate is outside CI's Miri set, and the two baseline skip lists seed
/// their coin flips from the wall clock, which Miri's isolation refuses.
#[test]
#[cfg_attr(miri, ignore)]
fn baselines_conform() {
    conforms(HarrisList::<u64, u64>::new(), false, |_, _| None);
    conforms(MichaelList::<u64, u64>::new(), false, |_, _| None);
    conforms(NoFlagList::<u64, u64>::new(), false, |_, _| None);
    conforms(CoarseLockList::<u64, u64>::new(), false, |_, _| None);
    conforms(HohLockList::<u64, u64>::new(), false, |_, _| None);
    conforms(LockSkipList::<u64, u64>::new(), false, |_, _| None);
    conforms(RestartSkipList::<u64, u64>::new(), false, |_, _| None);
}
