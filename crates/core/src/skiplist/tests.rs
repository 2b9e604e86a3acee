//! Unit tests for the Fomitchev–Ruppert skip list.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use super::SkipList;
use crate::list::LevelNode;

#[test]
fn empty_skiplist() {
    let sl: SkipList<i64, i64> = SkipList::new();
    assert!(sl.is_empty());
    assert_eq!(sl.len(), 0);
    assert_eq!(sl.get(&1), None);
    assert!(!sl.contains(&1));
    assert_eq!(sl.remove(&1), None);
}

#[test]
#[should_panic(expected = "max_level")]
fn max_level_must_be_at_least_two() {
    let _ = SkipList::<u8, u8>::with_max_level(1);
}

#[test]
fn insert_get_remove_single() {
    let sl = SkipList::new();
    assert!(sl.insert(5, "five").is_ok());
    assert_eq!(sl.len(), 1);
    assert_eq!(sl.get(&5), Some("five"));
    assert!(sl.contains(&5));
    assert_eq!(sl.remove(&5), Some("five"));
    assert_eq!(sl.len(), 0);
    assert_eq!(sl.get(&5), None);
}

#[test]
fn duplicate_insert_returns_pair() {
    let sl = SkipList::new();
    assert!(sl.insert(1, 10).is_ok());
    assert_eq!(sl.insert(1, 20), Err((1, 20)));
    assert_eq!(sl.get(&1), Some(10));
    assert_eq!(sl.len(), 1);
}

#[test]
fn reinsert_after_remove_many_rounds() {
    let sl = SkipList::new();
    for round in 0..20 {
        assert!(sl.insert(42, round).is_ok());
        assert_eq!(sl.remove(&42), Some(round));
    }
    assert!(sl.is_empty());
}

#[test]
fn minimal_height_skiplist_works() {
    // max_level = 2 forces every tower to height 1 (degenerates to the
    // linked list) and exercises the `max_level > 2` guard in delete.
    let sl = SkipList::with_max_level(2);
    for k in 0..50u32 {
        assert!(sl.insert(k, k).is_ok());
    }
    for k in 0..50u32 {
        assert_eq!(sl.remove(&k), Some(k));
    }
    assert!(sl.is_empty());
}

#[test]
#[cfg_attr(miri, ignore)] // 500-key sequential build: too slow interpreted
fn many_keys_sorted_iteration() {
    let sl = SkipList::new();
    let h = sl.handle();
    let mut keys: Vec<u64> = (0..500).map(|i| (i * 7919) % 10007).collect();
    keys.sort_unstable();
    keys.dedup();
    for &k in &keys {
        h.insert(k, k * 2).unwrap();
    }
    assert_eq!(sl.len(), keys.len());
    let collected: Vec<u64> = h.iter().map(|(k, _)| k).collect();
    assert_eq!(collected, keys);
    for &k in &keys {
        assert_eq!(h.get(&k), Some(k * 2));
    }
}

#[test]
fn remove_half_keeps_rest() {
    let sl = SkipList::new();
    let h = sl.handle();
    for k in 0..200u32 {
        h.insert(k, k).unwrap();
    }
    for k in (0..200u32).step_by(2) {
        assert_eq!(h.remove(&k), Some(k));
    }
    assert_eq!(sl.len(), 100);
    for k in 0..200u32 {
        assert_eq!(h.contains(&k), k % 2 == 1, "key {k}");
    }
    let odd: Vec<u32> = h.iter().map(|(k, _)| k).collect();
    assert_eq!(odd, (0..200u32).filter(|k| k % 2 == 1).collect::<Vec<_>>());
}

#[test]
fn string_keys() {
    let sl = SkipList::new();
    assert!(sl.insert("beta".to_string(), 2).is_ok());
    assert!(sl.insert("alpha".to_string(), 1).is_ok());
    assert!(sl.insert("gamma".to_string(), 3).is_ok());
    let h = sl.handle();
    let keys: Vec<String> = h.iter().map(|(k, _)| k).collect();
    assert_eq!(keys, vec!["alpha", "beta", "gamma"]);
    assert_eq!(h.remove(&"beta".to_string()), Some(2));
    assert_eq!(h.get(&"beta".to_string()), None);
}

#[test]
fn towers_are_dismantled_after_delete() {
    // After deleting every key and flushing reclamation, all levels
    // must be empty (no superfluous nodes left behind by our own
    // single-threaded deletes, which clean up levels >= 2 themselves).
    let sl: SkipList<u32, u32> = SkipList::new();
    let h = sl.handle();
    for k in 0..100 {
        h.insert(k, k).unwrap();
    }
    for k in 0..100 {
        h.remove(&k).unwrap();
    }
    for level in 0..sl.max_level {
        let head = sl.heads[level];
        let tail = sl.tails[level];
        unsafe {
            assert_eq!(
                (*head).right(),
                tail,
                "level {} not empty after all deletes",
                level + 1
            );
        }
    }
}

#[test]
fn no_leaks_no_double_free() {
    #[derive(Clone, Debug)]
    struct Counted(Arc<AtomicUsize>);
    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }
    let drops = Arc::new(AtomicUsize::new(0));
    let clones = Arc::new(AtomicUsize::new(0));
    {
        let sl = SkipList::new();
        let h = sl.handle();
        for k in 0..300u32 {
            h.insert(k, Counted(drops.clone())).unwrap();
        }
        for k in (0..300u32).step_by(3) {
            let got = h.remove(&k).unwrap(); // clone of the stored value
            clones.fetch_add(1, Ordering::SeqCst);
            drop(got);
        }
        h.flush_reclamation();
    }
    // 300 stored values + one clone per successful remove.
    assert_eq!(
        drops.load(Ordering::SeqCst),
        300 + clones.load(Ordering::SeqCst)
    );
}

#[test]
fn concurrent_no_leaks_no_double_free() {
    // Mixed insert/remove churn on a shared key range with a
    // drop-counting element type: every stored value — and every clone
    // handed out by `remove` — must drop exactly once. A leaked tower
    // block would undercount, a double retirement would overcount (or
    // crash).
    struct Counted {
        drops: Arc<AtomicUsize>,
        clones: Arc<AtomicUsize>,
    }
    impl Clone for Counted {
        fn clone(&self) -> Self {
            self.clones.fetch_add(1, Ordering::SeqCst);
            Counted {
                drops: self.drops.clone(),
                clones: self.clones.clone(),
            }
        }
    }
    impl Drop for Counted {
        fn drop(&mut self) {
            self.drops.fetch_add(1, Ordering::SeqCst);
        }
    }
    const THREADS: u64 = 4;
    const ROUNDS: u64 = if cfg!(miri) { 40 } else { 600 };
    let drops = Arc::new(AtomicUsize::new(0));
    let clones = Arc::new(AtomicUsize::new(0));
    let created = Arc::new(AtomicUsize::new(0));
    {
        let sl = Arc::new(SkipList::new());
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let sl = sl.clone();
                let drops = drops.clone();
                let clones = clones.clone();
                let created = created.clone();
                s.spawn(move || {
                    let h = sl.handle();
                    for r in 0..ROUNDS {
                        let k = (r * (t + 1)) % 32;
                        if t % 2 == 0 {
                            created.fetch_add(1, Ordering::SeqCst);
                            let v = Counted {
                                drops: drops.clone(),
                                clones: clones.clone(),
                            };
                            // A rejected duplicate hands the pair back;
                            // dropping it here counts it once.
                            let _ = h.insert(k, v);
                        } else {
                            // A successful remove clones the element.
                            let _ = h.remove(&k);
                        }
                    }
                });
            }
        });
        sl.validate_quiescent();
    }
    // The list is gone (towers retired by the collector's drop):
    // everything constructed — directly or via `remove`'s clones — has
    // dropped exactly once.
    assert_eq!(
        drops.load(Ordering::SeqCst),
        created.load(Ordering::SeqCst) + clones.load(Ordering::SeqCst)
    );
}

#[test]
fn debug_impls_nonempty() {
    let sl: SkipList<u8, u8> = SkipList::new();
    assert!(format!("{sl:?}").contains("SkipList"));
    assert!(!format!("{:?}", sl.handle()).is_empty());
}

// ---------- concurrent smoke tests ----------

#[test]
fn concurrent_disjoint_inserts() {
    const THREADS: u64 = 4;
    const PER: u64 = if cfg!(miri) { 25 } else { 300 };
    let sl = Arc::new(SkipList::new());
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let sl = sl.clone();
            s.spawn(move || {
                let h = sl.handle();
                for i in 0..PER {
                    h.insert(t * PER + i, t).unwrap();
                }
            });
        }
    });
    assert_eq!(sl.len(), (THREADS * PER) as usize);
    let h = sl.handle();
    let keys: Vec<u64> = h.iter().map(|(k, _)| k).collect();
    assert_eq!(keys, (0..THREADS * PER).collect::<Vec<_>>());
}

#[test]
fn concurrent_duplicate_inserts_one_winner_per_key() {
    const THREADS: usize = 4;
    const KEYS: u64 = if cfg!(miri) { 20 } else { 150 };
    let sl = Arc::new(SkipList::new());
    let wins = Arc::new(AtomicUsize::new(0));
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let sl = sl.clone();
            let wins = wins.clone();
            s.spawn(move || {
                let h = sl.handle();
                for k in 0..KEYS {
                    if h.insert(k, t).is_ok() {
                        wins.fetch_add(1, Ordering::SeqCst);
                    }
                }
            });
        }
    });
    assert_eq!(wins.load(Ordering::SeqCst), KEYS as usize);
    assert_eq!(sl.len(), KEYS as usize);
}

#[test]
fn concurrent_remove_one_winner_per_key() {
    const THREADS: usize = 4;
    const KEYS: u64 = if cfg!(miri) { 20 } else { 150 };
    let sl = Arc::new(SkipList::new());
    {
        let h = sl.handle();
        for k in 0..KEYS {
            h.insert(k, k).unwrap();
        }
    }
    let wins = Arc::new(AtomicUsize::new(0));
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let sl = sl.clone();
            let wins = wins.clone();
            s.spawn(move || {
                let h = sl.handle();
                for k in 0..KEYS {
                    if h.remove(&k).is_some() {
                        wins.fetch_add(1, Ordering::SeqCst);
                    }
                }
            });
        }
    });
    assert_eq!(wins.load(Ordering::SeqCst), KEYS as usize);
    assert_eq!(sl.len(), 0);
    assert_eq!(sl.handle().iter().count(), 0);
}

#[test]
fn concurrent_insert_delete_same_keys_structure_sound() {
    // Insert/delete racing on the same small key range: exercises
    // interrupted tower construction (root marked mid-build) and
    // superfluous-tower cleanup by searches.
    const ROUNDS: u64 = if cfg!(miri) { 60 } else { 400 };
    let sl = Arc::new(SkipList::new());
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let sl = sl.clone();
            s.spawn(move || {
                let h = sl.handle();
                for r in 0..ROUNDS {
                    let k = (r * (t + 1)) % 16;
                    if t % 2 == 0 {
                        let _ = h.insert(k, r);
                    } else {
                        let _ = h.remove(&k);
                    }
                    if r % 64 == 0 {
                        // Also exercise searches during churn.
                        let _ = h.contains(&k);
                    }
                }
            });
        }
    });
    // Quiesced: keys sorted and unique on level 1; every remaining key
    // readable.
    let h = sl.handle();
    let keys: Vec<u64> = h.iter().map(|(k, _)| k).collect();
    let uniq: BTreeSet<u64> = keys.iter().copied().collect();
    assert_eq!(keys.len(), uniq.len(), "duplicate keys on level 1");
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    assert_eq!(keys, sorted, "level 1 out of order");
    for k in &keys {
        assert!(h.contains(k));
    }
}

#[test]
fn final_state_matches_sequential_oracle() {
    const THREADS: u64 = 4;
    const PER: u64 = if cfg!(miri) { 15 } else { 80 };
    let sl = Arc::new(SkipList::new());
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let sl = sl.clone();
            s.spawn(move || {
                let h = sl.handle();
                for i in 0..PER {
                    let k = t * PER + i;
                    h.insert(k, k).unwrap();
                    if i % 3 == 0 {
                        assert_eq!(h.remove(&k), Some(k));
                    }
                }
            });
        }
    });
    let h = sl.handle();
    let expect: Vec<u64> = (0..THREADS * PER)
        .filter(|k| !(k % PER).is_multiple_of(3))
        .collect();
    let keys: Vec<u64> = h.iter().map(|(k, _)| k).collect();
    assert_eq!(keys, expect);
}

#[test]
fn vertical_structure_sound_when_quiescent() {
    // Every node on level v >= 2 must sit above a tower whose root is
    // reachable on level 1 with the same key (quiescent check).
    let sl: SkipList<u32, u32> = SkipList::new();
    let h = sl.handle();
    for k in 0..200 {
        h.insert(k, k).unwrap();
    }
    unsafe {
        for level in 1..sl.max_level {
            let mut cur = (*sl.heads[level]).right();
            while cur != sl.tails[level] {
                let root = (*cur).root();
                assert!(!(*root).is_marked(), "superfluous node left at quiescence");
                // Walking down from this node must reach the root.
                let mut d = cur;
                while !(*d).down().is_null() {
                    d = (*d).down();
                }
                assert_eq!(d, root, "down chain does not reach tower root");
                cur = (*cur).right();
            }
        }
    }
}

// ---------- range, first, pop_first ----------

#[test]
fn range_iteration_bounds() {
    let sl = SkipList::new();
    let h = sl.handle();
    for k in (0..100u32).step_by(2) {
        h.insert(k, k).unwrap();
    }
    let r: Vec<u32> = h.range(10..20).map(|(k, _)| k).collect();
    assert_eq!(r, vec![10, 12, 14, 16, 18]);
    let r: Vec<u32> = h.range(10..=20).map(|(k, _)| k).collect();
    assert_eq!(r, vec![10, 12, 14, 16, 18, 20]);
    // Bounds not present in the map.
    let r: Vec<u32> = h.range(9..21).map(|(k, _)| k).collect();
    assert_eq!(r, vec![10, 12, 14, 16, 18, 20]);
    let r: Vec<u32> = h.range(..6).map(|(k, _)| k).collect();
    assert_eq!(r, vec![0, 2, 4]);
    let r: Vec<u32> = h.range(94..).map(|(k, _)| k).collect();
    assert_eq!(r, vec![94, 96, 98]);
    assert_eq!(h.range(200..300).count(), 0);
    assert_eq!(h.range(..).count(), 50);
    // Excluded start bound.
    use std::ops::Bound;
    let r: Vec<u32> = h
        .range((Bound::Excluded(10), Bound::Included(14)))
        .map(|(k, _)| k)
        .collect();
    assert_eq!(r, vec![12, 14]);
}

#[test]
fn range_skips_removed_keys() {
    let sl = SkipList::new();
    let h = sl.handle();
    for k in 0..20u32 {
        h.insert(k, k).unwrap();
    }
    for k in (0..20u32).step_by(3) {
        h.remove(&k).unwrap();
    }
    let r: Vec<u32> = h.range(0..10).map(|(k, _)| k).collect();
    assert_eq!(r, vec![1, 2, 4, 5, 7, 8]);
}

#[test]
fn first_and_pop_first_sequential() {
    let sl = SkipList::new();
    let h = sl.handle();
    assert_eq!(h.first(), None);
    assert_eq!(h.pop_first(), None);
    for k in [30u32, 10, 20] {
        h.insert(k, k * 2).unwrap();
    }
    assert_eq!(h.first(), Some((10, 20)));
    assert_eq!(h.pop_first(), Some((10, 20)));
    assert_eq!(h.pop_first(), Some((20, 40)));
    assert_eq!(h.pop_first(), Some((30, 60)));
    assert_eq!(h.pop_first(), None);
    assert!(sl.is_empty());
}

#[test]
#[cfg_attr(miri, ignore)] // O(n^2) pop-first contention: too slow interpreted
fn concurrent_pop_first_unique_and_ordered_per_thread() {
    use std::sync::Mutex;
    const ITEMS: u64 = 300;
    let sl = Arc::new(SkipList::new());
    {
        let h = sl.handle();
        for k in 0..ITEMS {
            h.insert(k, k).unwrap();
        }
    }
    let all = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..4 {
            let sl = sl.clone();
            let all = &all;
            s.spawn(move || {
                let h = sl.handle();
                let mut mine = Vec::new();
                while let Some((k, _)) = h.pop_first() {
                    // Each thread's own pops come out in increasing order.
                    if let Some(&last) = mine.last() {
                        assert!(k > last, "thread popped {k} after {last}");
                    }
                    mine.push(k);
                }
                all.lock().unwrap().extend(mine);
            });
        }
    });
    let mut popped = all.into_inner().unwrap();
    popped.sort_unstable();
    assert_eq!(popped, (0..ITEMS).collect::<Vec<_>>());
    assert!(sl.is_empty());
}

#[test]
fn get_or_insert_semantics() {
    let sl = SkipList::new();
    let h = sl.handle();
    assert_eq!(h.get_or_insert(1, "first"), "first");
    assert_eq!(h.get_or_insert(1, "second"), "first");
    assert_eq!(sl.len(), 1);
    h.remove(&1).unwrap();
    assert_eq!(h.get_or_insert(1, "third"), "third");
}

#[test]
#[cfg_attr(miri, ignore)] // 8k-op churn: too slow interpreted
fn range_under_concurrent_churn_stays_sorted_and_bounded() {
    let sl = Arc::new(SkipList::new());
    {
        let h = sl.handle();
        for k in 0..256u64 {
            h.insert(k, k).unwrap();
        }
    }
    std::thread::scope(|s| {
        // Churners.
        for t in 0..2u64 {
            let sl = sl.clone();
            s.spawn(move || {
                let h = sl.handle();
                for r in 0..2_000u64 {
                    let k = (r * (t + 3)) % 256;
                    if r % 2 == 0 {
                        let _ = h.remove(&k);
                    } else {
                        let _ = h.insert(k, k);
                    }
                }
            });
        }
        // Rangers: every observed window must be sorted and in bounds.
        for _ in 0..2 {
            let sl = sl.clone();
            s.spawn(move || {
                let h = sl.handle();
                for start in (0..256u64).step_by(16) {
                    let window: Vec<u64> = h.range(start..start + 16).map(|(k, _)| k).collect();
                    for w in window.windows(2) {
                        assert!(w[0] < w[1], "range out of order: {window:?}");
                    }
                    for k in &window {
                        assert!(
                            (start..start + 16).contains(k),
                            "key {k} outside [{start}, {})",
                            start + 16
                        );
                    }
                }
            });
        }
    });
}

#[test]
fn from_iterator_and_extend() {
    let mut sl: SkipList<u32, u32> = (0..10u32).map(|k| (k, k * 2)).collect();
    assert_eq!(sl.len(), 10);
    assert_eq!(sl.get(&7), Some(14));
    sl.extend([(10, 20), (5, 99)]); // 5 is a duplicate: dropped
    assert_eq!(sl.len(), 11);
    assert_eq!(sl.get(&5), Some(10));
    assert_eq!(sl.get(&10), Some(20));
}

#[test]
fn set_facade_and_handle() {
    use super::SkipSet;
    let set = SkipSet::new();
    let h = set.handle();
    assert!(h.insert(3));
    assert!(h.insert(1));
    assert!(!h.insert(3));
    assert!(h.contains(&1));
    assert!(h.remove(&3));
    assert!(!h.remove(&3));
    assert_eq!(set.len(), 1);
    assert!(!set.is_empty());
    assert!(format!("{set:?}").contains("SkipSet"));
    assert!(!format!("{h:?}").is_empty());
    assert_eq!(set.as_skiplist().len(), 1);
}

#[test]
fn small_max_level_under_concurrency() {
    // max_level = 3 forces towers into two usable levels: heavy level
    // collisions stress the per-level algorithms.
    let sl = Arc::new(SkipList::with_max_level(3));
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let sl = sl.clone();
            s.spawn(move || {
                let h = sl.handle();
                for r in 0..if cfg!(miri) { 60 } else { 500u64 } {
                    let k = (r * (t + 1)) % 64;
                    if t % 2 == 0 {
                        let _ = h.insert(k, r);
                    } else {
                        let _ = h.remove(&k);
                    }
                }
            });
        }
    });
    let h = sl.handle();
    for k in 0..64u64 {
        let _ = h.contains(&k);
    }
    sl.validate_quiescent();
}
