//! Cross-shard `range` correctness.
//!
//! Sequential proptest against a `BTreeMap` oracle (same ops, same
//! bounds, identical output); the merge's lock-step cursor positions
//! against the sequential descent each list's own `range` performs;
//! then the scan's per-key guarantees under real concurrency: with
//! mutators churning a disjoint key class, a key present for the
//! scan's whole duration appears exactly once, a key absent throughout
//! never appears, and output stays strictly ascending.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;

use lf_core::skiplist::{merged_range, SkipList};
use lf_shard::ShardedSkipList;
use proptest::prelude::*;

/// Decode a generated `(kind, key)` pair into a range bound over a
/// key space of `0..220`.
fn decode_bound(kind: u64, key: u64) -> Bound<u64> {
    match kind % 3 {
        0 => Bound::Unbounded,
        1 => Bound::Included(key),
        _ => Bound::Excluded(key),
    }
}

fn bound_start_ok(k: u64, b: &Bound<u64>) -> bool {
    match b {
        Bound::Unbounded => true,
        Bound::Included(s) => k >= *s,
        Bound::Excluded(s) => k > *s,
    }
}

fn bound_end_ok(k: u64, b: &Bound<u64>) -> bool {
    match b {
        Bound::Unbounded => true,
        Bound::Included(e) => k <= *e,
        Bound::Excluded(e) => k < *e,
    }
}

const CASES: u32 = if cfg!(miri) { 6 } else { 96 };
const MAX_OPS: usize = if cfg!(miri) { 60 } else { 400 };

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]
    #[test]
    fn merged_scan_matches_btreemap_oracle(
        ops in proptest::collection::vec((0u64..4, 0u64..200, any::<u64>()), 0..MAX_OPS),
        lo in (0u64..4, 0u64..220),
        hi in (0u64..4, 0u64..220),
    ) {
        let map: ShardedSkipList<u64, u64> = ShardedSkipList::new(8);
        let h = map.handle();
        let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();

        for &(sel, key, val) in &ops {
            if sel < 3 {
                // Insert rejects duplicates, exactly like the oracle's
                // vacant-entry path.
                match h.insert(key, val) {
                    Ok(()) => prop_assert!(oracle.insert(key, val).is_none()),
                    Err((k, _)) => {
                        prop_assert_eq!(k, key);
                        prop_assert!(oracle.contains_key(&key));
                    }
                }
            } else {
                prop_assert_eq!(h.remove(&key), oracle.remove(&key));
            }
        }

        prop_assert_eq!(map.len(), oracle.len());

        let start = decode_bound(lo.0, lo.1);
        let end = decode_bound(hi.0, hi.1);
        // The oracle filters manually: `BTreeMap::range` panics on
        // inverted bounds, which the merged scan must instead treat as
        // an empty range.
        let expect: Vec<(u64, u64)> = oracle
            .iter()
            .filter(|(k, _)| bound_start_ok(**k, &start) && bound_end_ok(**k, &end))
            .map(|(k, v)| (*k, *v))
            .collect();

        let mut got = Vec::new();
        let n = h.range((start, end), |k, v| {
            got.push((*k, *v));
            true
        });
        prop_assert_eq!(n, got.len());
        prop_assert_eq!(got, expect);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]
    /// `merged_range` positions its cursors by descending all lists in
    /// lock step; `SkipListHandle::range` positions one list with the
    /// sequential `search_to_level`. From any start bound — key
    /// present, absent, below the minimum, above the maximum — and
    /// with some lists empty, every list's lock-step cursor must begin
    /// at the key its own sequential iterator begins at, and the merge
    /// must be the sorted union of those iterators.
    #[test]
    fn lock_step_positions_match_sequential_descent(
        keys in proptest::collection::vec(10u64..200, 0..120),
        shard_bits in 0u32..3,
        populated in 1usize..=8,
        start in (0u64..3, 0u64..220),
    ) {
        let shards = [1usize, 2, 8][shard_bits as usize];
        let first: SkipList<u64, u64> = SkipList::new();
        let mut lists: Vec<_> = (1..shards).map(|_| first.new_sibling()).collect();
        lists.insert(0, first);
        let handles: Vec<_> = lists.iter().map(SkipList::handle).collect();
        // Only the first `populated` lists receive keys; the rest stay
        // empty.
        let live = populated.min(shards);
        for &k in &keys {
            let i = (k.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize % live;
            // A repeated key is refused; the set is what counts.
            let _ = handles[i].insert(k, k);
        }
        let start = decode_bound(start.0, start.1);

        let mut union = Vec::new();
        for h in &handles {
            let sequential: Vec<u64> =
                h.range((start, Bound::Unbounded)).map(|(k, _)| k).collect();
            // One list alone: its cursor is the only one, so the first
            // key out is where lock-step positioning left it.
            let mut alone = Vec::new();
            merged_range(
                std::slice::from_ref(h),
                start.as_ref(),
                Bound::Unbounded,
                |k, _| {
                    alone.push(*k);
                    true
                },
            );
            prop_assert_eq!(&alone, &sequential);
            union.extend(sequential);
        }
        union.sort_unstable();

        // All lists together: descents interleaved.
        let mut merged = Vec::new();
        merged_range(&handles, start.as_ref(), Bound::Unbounded, |k, _| {
            merged.push(*k);
            true
        });
        prop_assert_eq!(merged, union);
    }
}

#[test]
fn concurrent_scan_per_key_guarantees() {
    // Key classes by residue mod 3: 0 = stable (inserted up front,
    // never touched), 1 = churn (concurrently inserted/removed),
    // 2 = never inserted.
    let (stable_n, churn_n, scans) = if cfg!(miri) {
        (30u64, 6u64, 3)
    } else {
        (400, 100, 60)
    };
    let map: ShardedSkipList<u64, u64> = ShardedSkipList::new(8);
    let h = map.handle();
    for k in 0..stable_n {
        assert!(h.insert(3 * k, 3 * k).is_ok());
    }
    let stop = AtomicBool::new(false);
    thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                let h = map.handle();
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let k = 3 * (i % churn_n) + 1;
                    let _ = h.insert(k, k);
                    let _ = h.remove(&k);
                    i += 1;
                }
            });
        }
        let hs = map.handle();
        for _ in 0..scans {
            let mut seen = Vec::new();
            hs.range(.., |k, v| {
                assert_eq!(k, v, "value follows key through the scan");
                seen.push(*k);
                true
            });
            for w in seen.windows(2) {
                assert!(w[0] < w[1], "scan output not strictly ascending: {w:?}");
            }
            let stable: Vec<u64> = seen.iter().copied().filter(|k| k % 3 == 0).collect();
            assert_eq!(
                stable,
                (0..stable_n).map(|k| 3 * k).collect::<Vec<_>>(),
                "a key present for the whole scan must appear exactly once"
            );
            assert!(
                seen.iter().all(|k| k % 3 != 2),
                "a key absent for the whole scan must never appear"
            );
        }
        stop.store(true, Ordering::Relaxed);
    });
}

#[test]
fn bounded_concurrent_scan_respects_bounds() {
    let (stable_n, scans) = if cfg!(miri) { (30u64, 3) } else { (300, 40) };
    let map: ShardedSkipList<u64, u64> = ShardedSkipList::new(4);
    let h = map.handle();
    for k in 0..stable_n {
        assert!(h.insert(2 * k, 2 * k).is_ok());
    }
    let stop = AtomicBool::new(false);
    thread::scope(|s| {
        s.spawn(|| {
            let h = map.handle();
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let k = 2 * (i % stable_n) + 1; // odd keys churn
                let _ = h.insert(k, k);
                let _ = h.remove(&k);
                i += 1;
            }
        });
        let hs = map.handle();
        let (lo, hi) = (stable_n / 2, stable_n + stable_n / 2);
        for _ in 0..scans {
            let mut seen = Vec::new();
            hs.range(lo..hi, |k, _| {
                seen.push(*k);
                true
            });
            assert!(seen.iter().all(|&k| k >= lo && k < hi), "out-of-range key");
            let evens: Vec<u64> = seen.iter().copied().filter(|k| k % 2 == 0).collect();
            let expect: Vec<u64> = (0..stable_n)
                .map(|k| 2 * k)
                .filter(|&k| k >= lo && k < hi)
                .collect();
            assert_eq!(evens, expect);
        }
        stop.store(true, Ordering::Relaxed);
    });
}
