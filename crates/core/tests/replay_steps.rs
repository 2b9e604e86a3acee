//! Tower heights come from a per-handle generator seeded by the list's
//! handle ticket, not from the clock: two single-threaded replays of
//! one script build the same towers, so they report identical
//! `lf-metrics` step totals and a step count can be compared exactly
//! across runs.
//!
//! The step counters are process-global; this file holds one test so
//! nothing else records into them meanwhile.

use lf_core::SkipList;

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

#[test]
fn single_threaded_replays_count_identical_steps() {
    let (first, towers) = replay();
    assert!(first.ops >= 6_000 && first.essential_steps() > first.ops);
    // Not one fixed height: the generator still draws a geometric mix.
    assert!(towers.contains(&1) && towers.iter().any(|&h| h > 2));
    for _ in 0..3 {
        assert_eq!(replay(), (first, towers.clone()));
    }
}
