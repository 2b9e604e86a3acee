//! Unit tests for the Fomitchev–Ruppert linked list.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use super::{FlagStatus, FrList, Level, LevelNode};

#[test]
fn empty_list() {
    let list: FrList<i64, i64> = FrList::new();
    assert!(list.is_empty());
    assert_eq!(list.len(), 0);
    assert_eq!(list.get(&1), None);
    assert!(!list.contains(&1));
    assert_eq!(list.remove(&1), None);
}

#[test]
fn insert_get_remove_single() {
    let list = FrList::new();
    assert!(list.insert(5, "five").is_ok());
    assert_eq!(list.len(), 1);
    assert_eq!(list.get(&5), Some("five"));
    assert!(list.contains(&5));
    assert_eq!(list.remove(&5), Some("five"));
    assert_eq!(list.len(), 0);
    assert_eq!(list.get(&5), None);
}

#[test]
fn duplicate_insert_returns_pair() {
    let list = FrList::new();
    assert!(list.insert(1, 10).is_ok());
    assert_eq!(list.insert(1, 20), Err((1, 20)));
    // Original value untouched.
    assert_eq!(list.get(&1), Some(10));
    assert_eq!(list.len(), 1);
}

#[test]
fn reinsert_after_remove() {
    let list = FrList::new();
    for round in 0..5 {
        assert!(list.insert(42, round).is_ok());
        assert_eq!(list.get(&42), Some(round));
        assert_eq!(list.remove(&42), Some(round));
    }
    assert!(list.is_empty());
}

#[test]
fn keeps_sorted_order() {
    let list = FrList::new();
    let h = list.handle();
    for k in [5, 1, 9, 3, 7, 2, 8, 4, 6, 0] {
        assert!(h.insert(k, k * 10).is_ok());
    }
    let collected: Vec<i32> = h.iter().map(|(k, _)| k).collect();
    assert_eq!(collected, (0..10).collect::<Vec<_>>());
    let values: Vec<i32> = h.iter().map(|(_, v)| v).collect();
    assert_eq!(values, (0..10).map(|k| k * 10).collect::<Vec<_>>());
}

#[test]
fn extreme_keys() {
    let list = FrList::new();
    assert!(list.insert(i64::MIN, ()).is_ok());
    assert!(list.insert(i64::MAX, ()).is_ok());
    assert!(list.contains(&i64::MIN));
    assert!(list.contains(&i64::MAX));
    assert_eq!(list.remove(&i64::MIN), Some(()));
    assert_eq!(list.remove(&i64::MAX), Some(()));
}

#[test]
fn remove_middle_preserves_neighbours() {
    let list = FrList::new();
    let h = list.handle();
    for k in 0..10 {
        h.insert(k, k).unwrap();
    }
    assert_eq!(h.remove(&5), Some(5));
    let collected: Vec<i32> = h.iter().map(|(k, _)| k).collect();
    assert_eq!(collected, vec![0, 1, 2, 3, 4, 6, 7, 8, 9]);
}

#[test]
fn iter_skips_nothing_on_quiescent_list() {
    let list = FrList::new();
    let h = list.handle();
    let keys: BTreeSet<u32> = (0..100).map(|i| i * 3 % 101).collect();
    for &k in &keys {
        h.insert(k, ()).unwrap();
    }
    let seen: BTreeSet<u32> = h.iter().map(|(k, _)| k).collect();
    assert_eq!(seen, keys);
}

#[test]
fn string_keys_and_values() {
    let list = FrList::new();
    assert!(list.insert("b".to_string(), 2).is_ok());
    assert!(list.insert("a".to_string(), 1).is_ok());
    assert!(list.insert("c".to_string(), 3).is_ok());
    let h = list.handle();
    let keys: Vec<String> = h.iter().map(|(k, _)| k).collect();
    assert_eq!(keys, vec!["a", "b", "c"]);
}

#[test]
fn debug_impls_nonempty() {
    let list: FrList<u8, u8> = FrList::new();
    assert!(format!("{list:?}").contains("FrList"));
    assert!(!format!("{:?}", list.handle()).is_empty());
}

/// Every allocated value must be dropped exactly once — whether removed
/// (retired through the collector) or still in the list at drop time.
#[test]
fn no_leaks_no_double_free() {
    #[derive(Debug)]
    struct Counted(Arc<AtomicUsize>);
    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }
    let drops = Arc::new(AtomicUsize::new(0));
    {
        let list = FrList::new();
        let h = list.handle();
        for k in 0..100u32 {
            h.insert(k, Counted(drops.clone())).unwrap();
        }
        // Remove the even half; their nodes are retired.
        for k in (0..100u32).step_by(2) {
            struct_remove(&list, &k);
        }
        h.flush_reclamation();
        assert_eq!(list.len(), 50);
    }
    assert_eq!(drops.load(Ordering::SeqCst), 100);

    fn struct_remove<V: Send + Sync + 'static>(list: &FrList<u32, V>, k: &u32) {
        // Remove without cloning the value (no `V: Clone` available):
        // use the raw delete path through a handle.
        let h = list.handle();
        let guard = <lf_reclaim::Ebr as lf_reclaim::Reclaim>::pin(&h.reclaim);
        unsafe {
            let (prev, del) = list.search_from(k, list.head, super::Mode::Lt, &guard);
            assert_eq!((*del).key.as_key(), Some(k));
            assert_eq!(list.delete_node(prev, del, &guard).1, FlagStatus::Placed);
            list.len.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

// ---------- concurrent smoke tests ----------

#[test]
fn concurrent_disjoint_inserts() {
    const THREADS: u64 = 4;
    const PER: u64 = if cfg!(miri) { 25 } else { 200 };
    let list = Arc::new(FrList::new());
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let list = list.clone();
            s.spawn(move || {
                let h = list.handle();
                for i in 0..PER {
                    h.insert(t * PER + i, t).unwrap();
                }
            });
        }
    });
    assert_eq!(list.len(), (THREADS * PER) as usize);
    let h = list.handle();
    let keys: Vec<u64> = h.iter().map(|(k, _)| k).collect();
    assert_eq!(keys, (0..THREADS * PER).collect::<Vec<_>>());
}

#[test]
fn concurrent_duplicate_inserts_one_winner_per_key() {
    const THREADS: usize = 4;
    const KEYS: u64 = if cfg!(miri) { 20 } else { 100 };
    let list = Arc::new(FrList::new());
    let wins = Arc::new(AtomicUsize::new(0));
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let list = list.clone();
            let wins = wins.clone();
            s.spawn(move || {
                let h = list.handle();
                for k in 0..KEYS {
                    if h.insert(k, t).is_ok() {
                        wins.fetch_add(1, Ordering::SeqCst);
                    }
                }
            });
        }
    });
    assert_eq!(wins.load(Ordering::SeqCst), KEYS as usize);
    assert_eq!(list.len(), KEYS as usize);
}

#[test]
fn concurrent_remove_one_winner_per_key() {
    const THREADS: usize = 4;
    const KEYS: u64 = if cfg!(miri) { 20 } else { 100 };
    let list = Arc::new(FrList::new());
    {
        let h = list.handle();
        for k in 0..KEYS {
            h.insert(k, k).unwrap();
        }
    }
    let wins = Arc::new(AtomicUsize::new(0));
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let list = list.clone();
            let wins = wins.clone();
            s.spawn(move || {
                let h = list.handle();
                for k in 0..KEYS {
                    if h.remove(&k).is_some() {
                        wins.fetch_add(1, Ordering::SeqCst);
                    }
                }
            });
        }
    });
    assert_eq!(wins.load(Ordering::SeqCst), KEYS as usize);
    assert_eq!(list.len(), 0);
    let h = list.handle();
    assert_eq!(h.iter().count(), 0);
}

#[test]
fn concurrent_insert_delete_adjacent_keys() {
    // Stresses the flag/backlink machinery: inserters and deleters work
    // on neighbouring keys so CAS failures from flagging/marking happen.
    const ROUNDS: u64 = if cfg!(miri) { 60 } else { 300 };
    let list = Arc::new(FrList::new());
    {
        let h = list.handle();
        for k in 0..20u64 {
            h.insert(k * 2, 0).unwrap(); // even keys resident
        }
    }
    std::thread::scope(|s| {
        // Deleters toggle even keys.
        for _ in 0..2 {
            let list = list.clone();
            s.spawn(move || {
                let h = list.handle();
                for r in 0..ROUNDS {
                    let k = (r % 20) * 2;
                    if h.remove(&k).is_none() {
                        let _ = h.insert(k, r);
                    }
                }
            });
        }
        // Inserters toggle odd keys (adjacent slots).
        for _ in 0..2 {
            let list = list.clone();
            s.spawn(move || {
                let h = list.handle();
                for r in 0..ROUNDS {
                    let k = (r % 20) * 2 + 1;
                    if h.insert(k, r).is_err() {
                        let _ = h.remove(&k);
                    }
                }
            });
        }
    });
    // Structure still sound: sorted, no duplicates.
    let h = list.handle();
    let keys: Vec<u64> = h.iter().map(|(k, _)| k).collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(keys, sorted);
}

#[test]
fn final_state_matches_sequential_oracle() {
    // Each key is touched by exactly one thread, so the final state is
    // the state of a sequential per-thread history.
    const THREADS: u64 = 4;
    const PER: u64 = if cfg!(miri) { 15 } else { 50 };
    let list = Arc::new(FrList::new());
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let list = list.clone();
            s.spawn(move || {
                let h = list.handle();
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
    let h = list.handle();
    let expect: Vec<u64> = (0..THREADS * PER)
        .filter(|k| !(k % PER).is_multiple_of(3))
        .collect();
    let keys: Vec<u64> = h.iter().map(|(k, _)| k).collect();
    assert_eq!(keys, expect);
}

#[test]
fn backlink_set_on_deleted_nodes() {
    // After a deletion completes, the victim's backlink must point at
    // the predecessor that was flagged (INV 4). We verify through the
    // raw API on a quiescent list.
    let list: FrList<u32, u32> = FrList::new();
    let h = list.handle();
    h.insert(1, 1).unwrap();
    h.insert(2, 2).unwrap();
    let guard = <lf_reclaim::Ebr as lf_reclaim::Reclaim>::pin(&h.reclaim);
    unsafe {
        let n1 = list.search_impl(&1, &guard).unwrap();
        let n2 = list.search_impl(&2, &guard).unwrap();
        assert!(h.remove(&2).is_some());
        // n2 is retired but the guard keeps it alive; its backlink must
        // be its predecessor at deletion time, namely n1.
        assert!((*n2).is_marked());
        assert_eq!((*n2).backlink(), n1);
    }
}

#[test]
fn first_and_pop_first() {
    let list = FrList::new();
    let h = list.handle();
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
}

#[test]
fn get_or_insert_semantics() {
    let list = FrList::new();
    let h = list.handle();
    assert_eq!(h.get_or_insert(1, "first"), "first");
    assert_eq!(h.get_or_insert(1, "second"), "first");
    assert_eq!(list.len(), 1);
    h.remove(&1).unwrap();
    assert_eq!(h.get_or_insert(1, "third"), "third");
}

#[test]
fn concurrent_get_or_insert_converges() {
    let list = Arc::new(FrList::new());
    let mut seen = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let list = list.clone();
                s.spawn(move || {
                    let h = list.handle();
                    h.get_or_insert(99, t)
                })
            })
            .collect();
        for th in handles {
            seen.push(th.join().unwrap());
        }
    });
    // All callers must agree on the single winning value.
    let winner = list.get(&99).unwrap();
    for v in seen {
        assert_eq!(v, winner);
    }
}

#[test]
fn from_iterator_and_extend() {
    let mut list: FrList<u32, u32> = (0..10u32).map(|k| (k, k * 2)).collect();
    assert_eq!(list.len(), 10);
    assert_eq!(list.get(&7), Some(14));
    list.extend([(10, 20), (5, 99)]);
    assert_eq!(list.len(), 11);
    assert_eq!(list.get(&5), Some(10));
}

#[test]
fn set_facade_and_handle() {
    use super::ListSet;
    let set = ListSet::new();
    let h = set.handle();
    assert!(h.insert(3));
    assert!(h.insert(1));
    assert!(!h.insert(3));
    assert!(h.contains(&1));
    assert!(h.remove(&3));
    assert!(!h.remove(&3));
    assert_eq!(set.len(), 1);
    assert!(!set.is_empty());
    assert!(format!("{set:?}").contains("ListSet"));
    assert!(!format!("{h:?}").is_empty());
    assert_eq!(set.as_list().len(), 1);
}
