//! Key → bucket routing.
//!
//! Every key deterministically maps to exactly one bucket; a point
//! operation therefore touches exactly one FR list, which is what
//! makes the map's expected cost `O(n/B + c(bucket))` — the paper's
//! per-list bound evaluated at the bucket's occupancy and contention.
//!
//! Same router as `lf-shard`: SipHash-1-3 ([`DefaultHasher`]) under
//! the standard library's default (zero) keys, so routing is
//! deterministic within a process and across processes — benchmark
//! runs and their committed baselines bucket identically. HashDoS
//! resistance is deliberately traded away: bucket choice spreads
//! occupancy and contention, it is not a security boundary (a
//! colliding workload degrades to the single-list cost the paper
//! starts from, nothing worse).

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// The one SipHash of `key` that all routing is sliced from: the
/// bucket index is its fold (`bucket_of_hash`), and `lf-shard`'s
/// `ShardedMap` takes its shard index from the raw high half of the
/// same word, so a routed operation hashes its key exactly once.
#[inline]
pub fn hash_key<K: Hash + ?Sized>(key: &K) -> u64 {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

/// Route a key's [`hash_key`] to a bucket index in `0..=mask` (`mask`
/// = bucket count − 1, bucket count a power of two).
///
/// The high half of the 64-bit hash is folded into the low half before
/// masking so small bucket counts still consume all of SipHash's
/// diffusion.
#[inline]
pub(crate) fn bucket_of_hash(hash: u64, mask: usize) -> usize {
    ((hash ^ (hash >> 32)) as usize) & mask
}

#[cfg(test)]
mod tests {
    use super::{bucket_of_hash, hash_key};

    fn bucket_of(key: &u64, mask: usize) -> usize {
        bucket_of_hash(hash_key(key), mask)
    }

    #[test]
    fn routing_is_deterministic() {
        for k in 0u64..1000 {
            assert_eq!(bucket_of(&k, 63), bucket_of(&k, 63));
        }
    }

    #[test]
    fn routing_respects_mask() {
        for k in 0u64..1000 {
            assert!(bucket_of(&k, 15) < 16);
            assert_eq!(bucket_of(&k, 0), 0);
        }
    }

    #[test]
    fn routing_spreads_sequential_keys() {
        // Sequential u64 keys must not collapse onto one bucket.
        let mut counts = [0usize; 16];
        for k in 0u64..16000 {
            counts[bucket_of(&k, 15)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(c > 500, "bucket {i} starved: {c}/16000");
        }
    }
}
