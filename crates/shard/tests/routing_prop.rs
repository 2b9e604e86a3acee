//! Routing must not move: `ShardedMap` hashes a key once
//! (`lf_map::hash_key`), takes the shard from the word's high half and
//! hands the word down for the bucket fold — and that must land every
//! key exactly where the two independent SipHashes of the earlier
//! router did (committed `BENCH_e13`/`BENCH_e15` and stackbench's
//! `shard.max_ops_share` depend on the partition a key lands in).

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use lf_map::{hash_key, BucketMap};
use lf_shard::ShardedMap;
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

/// Insert `key` through a routed handle and return the one
/// `(shard, bucket)` whose occupancy and op count moved.
fn landing_site<K>(key: K) -> (usize, usize)
where
    K: Ord + Hash + Clone + Send + Sync + 'static,
{
    let map: ShardedMap<K, u8> = ShardedMap::new(SHARDS, BUCKETS);
    assert!(map.handle().insert(key, 0).is_ok());
    let mut sites = Vec::new();
    for (s, shard) in map.snapshot().iter().enumerate() {
        for (b, bucket) in shard.per_partition.iter().enumerate() {
            assert_eq!(bucket.ops as usize, bucket.occupancy);
            if bucket.occupancy == 1 {
                sites.push((s, b));
            }
        }
    }
    assert_eq!(sites.len(), 1, "one key must land in exactly one bucket");
    sites[0]
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
