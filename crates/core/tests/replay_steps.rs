//! Tower heights come from a per-handle generator seeded by the list's
//! handle ticket, not from the clock: two single-threaded replays of
//! one script build the same towers, so they report identical
//! `lf-metrics` step totals and a step count can be compared exactly
//! across runs.
//!
//! The same property holds a rewrite of the scan path to the paper's
//! cost measure: a fixed script of updates and `merged_range` pages
//! over sibling lists must count the totals committed below, which
//! were recorded before `merged_range` positioned its cursors in lock
//! step (all but the search hops, re-recorded when updates stopped
//! descending again for their upper levels). A faster walk that took
//! one more (or one fewer) step fails here, whatever the clock says.
//!
//! The sibling entry points (`insert_in`, `try_read_in`, …) that
//! `lf-map`'s buckets run on are pinned the same way: one handle drives
//! a fixed script over four pool-sharing `FrList`s, on `Ebr` and on
//! `Vbr` (whose `try_read` skips the pin), and must count the totals
//! committed below — recorded while the sibling ops still had their own
//! read, delete and search bodies.
//!
//! The step counters are process-global; this file holds one test so
//! nothing else records into them meanwhile.

use std::ops::Bound;

use lf_core::skiplist::merged_range;
use lf_core::{FrList, MapHandle, SkipList};
use lf_reclaim::{Ebr, Publish, Reclaim};
use lf_vbr::Vbr;

/// One replay on a fresh list: its full step snapshot and its towers.
fn replay() -> (lf_metrics::Snapshot, Vec<usize>) {
    let list: SkipList<u64, u64> = SkipList::new();
    let before = lf_metrics::snapshot();
    let h = list.handle();
    for i in 0..2_000u64 {
        let key = i * 37 % 601;
        if i % 3 == 2 {
            h.remove(&key);
        } else {
            let _ = h.insert(key, i);
        }
        assert_eq!(h.get(&key).is_some(), h.contains(&key));
    }
    drop(h);
    (lf_metrics::snapshot() - before, list.tower_heights())
}

/// Updates and scan pages over four sibling lists: every kind of start
/// bound, cursors that are present, removed and beyond both ends, and
/// pages cut short by the visitor.
fn replay_scans() -> (lf_metrics::Snapshot, u64) {
    let first: SkipList<u64, u64> = SkipList::new();
    let mut lists = vec![
        first.new_sibling(),
        first.new_sibling(),
        first.new_sibling(),
    ];
    lists.insert(0, first);
    let before = lf_metrics::snapshot();
    let handles: Vec<_> = lists.iter().map(SkipList::handle).collect();
    let refs: Vec<_> = handles.iter().collect();
    let shard = |k: u64| (k.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) as usize % 4;
    let mut checksum = 0u64;
    for i in 0..6_000u64 {
        let key = i * 53 % 1_999;
        if i % 4 == 3 {
            handles[shard(key)].remove(&key);
        } else {
            let _ = handles[shard(key)].insert(key, i);
        }
        if i % 5 == 0 {
            let cursor = i * 31 % 2_100;
            let start = match i % 15 {
                0 => Bound::Excluded(&cursor),
                5 => Bound::Included(&cursor),
                _ => Bound::Unbounded,
            };
            let mut left = 32;
            merged_range(&refs, start, Bound::Unbounded, |k, v| {
                checksum = checksum.wrapping_mul(31).wrapping_add(k ^ v);
                left -= 1;
                left > 0
            });
        }
    }
    drop(handles);
    (lf_metrics::snapshot() - before, checksum)
}

/// Point ops over four sibling lists through the first list's handle:
/// the handle's own list gets the plain ops, the other three the `*_in`
/// forms. Periodic flushes recycle removed blocks through the shared
/// pool, so later inserts re-tenant them into any sibling.
fn replay_siblings<R: Reclaim + Publish<u64>>() -> lf_metrics::Snapshot {
    let first: FrList<u64, u64, R> = FrList::with_backend();
    let lists = [
        first.new_sibling(),
        first.new_sibling(),
        first.new_sibling(),
    ];
    let before = lf_metrics::snapshot();
    let h = first.handle();
    for i in 0..4_000u64 {
        let key = i * 41 % 509;
        let sibling = match (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) % 4 {
            0 => None,
            j => Some(&lists[j as usize - 1]),
        };
        let present = match sibling {
            None => {
                if i % 3 == 2 {
                    h.remove(&key);
                } else {
                    let _ = h.insert(key, i);
                }
                let present = h.get(&key);
                assert_eq!(h.contains(&key), present.is_some());
                assert_eq!(h.get_with(&key, |v| *v), present);
                assert_eq!(h.try_read(&key), present);
                present
            }
            Some(list) => {
                if i % 3 == 2 {
                    h.remove_with_in(list, &key, |_| ());
                } else {
                    let _ = h.insert_in(list, key, i);
                }
                let present = h.get_with_in(list, &key, |v| *v);
                assert_eq!(
                    h.get_with_in(list, &key, |_| ()).is_some(),
                    present.is_some()
                );
                assert_eq!(h.get_with_in(list, &key, |v| *v), present);
                assert_eq!(h.try_read_in(list, &key), present);
                present
            }
        };
        assert_eq!(present.is_some(), i % 3 != 2);
        if i % 64 == 63 {
            h.flush_reclamation();
        }
    }
    drop(h);
    lf_metrics::snapshot() - before
}

#[test]
fn single_threaded_replays_count_identical_steps() {
    let (first, towers) = replay();
    assert!(first.ops >= 6_000 && first.essential_steps() > first.ops);
    // Not one fixed height: the generator still draws a geometric mix.
    assert!(towers.contains(&1) && towers.iter().any(|&h| h > 2));
    for _ in 0..3 {
        assert_eq!(replay(), (first, towers.clone()));
    }

    // Recorded at the parent of the lock-step walk (commit 69488f0),
    // except `curr_updates` (80158 there): updates now link and
    // dismantle upper levels from their one recorded descent instead of
    // searching from the top again, which saves only search hops.
    let recorded = lf_metrics::Snapshot {
        cas_ok: [5295, 2152, 2152, 2152],
        next_updates: 1151,
        curr_updates: 61397,
        ops: 7200,
        ops_by: [0, 7200, 0],
        ..Default::default()
    };
    assert_eq!(replay_scans(), (recorded, 15088487049799256850));

    // Recorded before the sibling ops were folded into the list's own
    // routines (commit 2a31684). The two backends differ only in the
    // search hops the pin-free `try_read` does not count.
    let siblings = |curr_updates| lf_metrics::Snapshot {
        cas_ok: [1503, 1164, 1164, 1164],
        curr_updates,
        ops: 5060,
        ops_by: [5060, 0, 0],
        ..Default::default()
    };
    assert_eq!(replay_siblings::<Ebr>(), siblings(799207));
    assert_eq!(replay_siblings::<Vbr>(), siblings(639065));
}
