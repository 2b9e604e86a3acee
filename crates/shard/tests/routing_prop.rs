//! Routing must not move: `ShardedMap` hashes a key once
//! (`lf_map::hash_key`), takes the shard from the word's high half and
//! hands the word down for the bucket fold — and that must land every
//! key exactly where the two independent SipHashes of the earlier
//! router did (committed `BENCH_e13`/`BENCH_e15` and stackbench's
//! `shard.max_ops_share` depend on the partition a key lands in).

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use lf_map::{hash_key, BucketMap};
use lf_shard::{ShardedMap, ShardedSkipList};
use proptest::prelude::*;

const SHARDS: usize = 4;
const BUCKETS: usize = 8;

/// The earlier router, restated: one SipHash-1-3 under zero keys per
/// routing level.
fn sip<K: Hash>(key: &K) -> u64 {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

fn old_shard_of<K: Hash>(key: &K) -> usize {
    ((sip(key) >> 32) as usize) & (SHARDS - 1)
}

fn old_bucket_of<K: Hash>(key: &K) -> usize {
    let x = sip(key);
    ((x ^ (x >> 32)) as usize) & (BUCKETS - 1)
}

/// Insert `key` through a routed handle and return the one shard whose
/// occupancy and op count moved, with the bucket `BucketMap::bucket_of`
/// names for it in a map of that shard's bucket count (which
/// `trace_tags_name_the_shard_or_the_bucket` checks is where the
/// routed op runs).
fn landing_site<K>(key: K) -> (usize, usize)
where
    K: Ord + Hash + Clone + Send + Sync + 'static,
{
    let map: ShardedMap<K, u8> = ShardedMap::new(SHARDS, BUCKETS);
    assert!(map.handle().insert(key.clone(), 0).is_ok());
    let mut sites = Vec::new();
    for (s, shard) in map.snapshot().iter().enumerate() {
        let shard = shard.merged();
        assert_eq!(shard.ops as usize, shard.occupancy);
        if shard.occupancy == 1 {
            sites.push(s);
        }
    }
    assert_eq!(
        sites,
        [map.shard_of(&key)],
        "one key must land in one shard"
    );
    let bucket = BucketMap::<K, u8>::new(BUCKETS).bucket_of(&key);
    (sites[0], bucket)
}

fn check<K>(key: K)
where
    K: Ord + Hash + Clone + Send + Sync + 'static,
{
    let sharded: ShardedMap<K, u8> = ShardedMap::new(SHARDS, BUCKETS);
    let buckets: BucketMap<K, u8> = BucketMap::new(BUCKETS);
    assert_eq!(hash_key(&key), sip(&key));
    assert_eq!(sharded.shard_of(&key), old_shard_of(&key));
    assert_eq!(buckets.bucket_of(&key), old_bucket_of(&key));
    assert_eq!(
        landing_site(key.clone()),
        (old_shard_of(&key), old_bucket_of(&key))
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 8 } else { 128 }))]
    #[test]
    fn integer_keys_route_where_they_did(key in any::<u64>()) {
        check(key);
    }

    #[test]
    fn byte_string_keys_route_where_they_did(
        key in proptest::collection::vec(any::<u8>(), 0..24),
    ) {
        check(key);
    }
}

/// The shard tag on every event of a routed op: the shard index on the
/// ordered tier, the bucket index within the shard on the hash tier.
#[test]
fn trace_tags_name_the_shard_or_the_bucket() {
    /// The distinct shard tags of the events `op` records on a thread
    /// of its own.
    fn tags(op: impl FnOnce() + Send) -> Vec<u16> {
        let tid = std::thread::scope(|s| {
            s.spawn(|| {
                op();
                lf_trace::current_thread_id()
            })
            .join()
            .unwrap()
        });
        let mut tags: Vec<u16> = lf_trace::snapshot()
            .into_iter()
            .filter(|e| e.thread == tid && e.shard != lf_trace::NO_SHARD)
            .map(|e| e.shard)
            .collect();
        tags.dedup();
        tags
    }

    let ordered: ShardedSkipList<u64, u8> = ShardedSkipList::new(SHARDS);
    let hashed: ShardedMap<u64, u8> = ShardedMap::new(SHARDS, BUCKETS);
    let buckets: BucketMap<u64, u8> = BucketMap::new(BUCKETS);
    lf_trace::enable();
    for key in 0..if cfg!(miri) { 4 } else { 16 } {
        let shard = ordered.shard_of(&key) as u16;
        assert_eq!(
            tags(|| assert!(ordered.handle().insert(key, 0).is_ok())),
            [shard]
        );
        let bucket = buckets.bucket_of(&key) as u16;
        assert_eq!(
            tags(|| assert!(hashed.handle().insert(key, 0).is_ok())),
            [bucket]
        );
    }
    lf_trace::disable();
}
