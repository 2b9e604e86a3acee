//! Key → shard routing.
//!
//! Every key deterministically maps to exactly one shard, which is the
//! invariant the ordered cross-shard scan relies on for strict output
//! monotonicity (a key can surface from at most one per-shard cursor).
//!
//! The router hashes with the standard library's SipHash-1-3
//! (`DefaultHasher`, through the tier's one [`lf_map::hash_key`])
//! under its default (zero) keys, so routing is
//! deterministic within a process *and* across processes — benchmark
//! runs and their baselines partition identically. HashDoS resistance
//! is deliberately traded away: shard choice only spreads contention,
//! it is not a security boundary (a colliding workload degrades to the
//! single-list cost we started from, nothing worse).

/// The ordered tier's shard index in `0..=mask` (`mask` = shard count
/// − 1, shard count a power of two) of a key whose
/// [`lf_map::hash_key`] is `hash`.
///
/// The high half of the 64-bit hash is folded into the low half before
/// masking so small shard counts still consume all of SipHash's
/// diffusion.
#[inline]
pub(crate) fn shard_of_hash(hash: u64, mask: usize) -> usize {
    ((hash ^ (hash >> 32)) as usize) & mask
}

/// The shard index for the bucketed-map flavor
/// ([`ShardedMap`](crate::ShardedMap)) of a key whose
/// [`lf_map::hash_key`] is `hash`; the word then goes down to the
/// shard's `_hashed` entry point unchanged.
///
/// Deliberately **not** [`shard_of_hash`]: the inner `lf-map` shards
/// route keys to buckets from the *folded low* bits of the same
/// SipHash, so masking the fold here too would fix those bits within a
/// shard and leave every shard populating only `B/P` of its buckets.
/// Taking the raw high half instead keeps the two levels' bits
/// independent (the fold XORs the uniform low half on top of whatever
/// this selects).
#[inline]
pub(crate) fn map_shard_of_hash(hash: u64, mask: usize) -> usize {
    ((hash >> 32) as usize) & mask
}

#[cfg(test)]
mod tests {
    use lf_map::hash_key;

    fn shard_of(k: &u64, mask: usize) -> usize {
        super::shard_of_hash(hash_key(k), mask)
    }

    #[test]
    fn routing_is_deterministic() {
        for k in 0u64..1000 {
            assert_eq!(shard_of(&k, 7), shard_of(&k, 7));
        }
    }

    #[test]
    fn routing_respects_mask() {
        for k in 0u64..1000 {
            assert!(shard_of(&k, 3) < 4);
            assert_eq!(shard_of(&k, 0), 0);
        }
    }

    #[test]
    fn map_routing_is_independent_of_bucket_bits() {
        let map_shard_of = |k: &u64, mask| super::map_shard_of_hash(hash_key(k), mask);
        // Keys confined to one map-flavor shard must still spread over
        // the inner buckets' bit positions (the aliasing this router
        // exists to avoid). Reimplement the bucket fold locally.
        let bucket_of = |k: &u64, mask: usize| {
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            k.hash(&mut h);
            let x = h.finish();
            ((x ^ (x >> 32)) as usize) & mask
        };
        let mut buckets_seen = [false; 16];
        for k in 0u64..4000 {
            if map_shard_of(&k, 3) == 0 {
                buckets_seen[bucket_of(&k, 15)] = true;
            }
        }
        assert!(
            buckets_seen.iter().all(|&b| b),
            "shard 0's keys collapsed onto a bucket subset: {buckets_seen:?}"
        );
    }

    #[test]
    fn routing_spreads_sequential_keys() {
        // Sequential u64 keys must not collapse onto one shard.
        let mut counts = [0usize; 8];
        for k in 0u64..8000 {
            counts[shard_of(&k, 7)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(c > 500, "shard {i} starved: {c}/8000");
        }
    }
}
