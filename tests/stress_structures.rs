//! High-volume churn stress with structural validation and leak
//! accounting for the two core structures.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use lockfree_lists::{FrList, MapHandle, SkipList};

#[derive(Clone, Debug)]
struct Counted(Arc<AtomicUsize>, u64);

impl Drop for Counted {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn fr_list_churn_validates_and_frees() {
    const THREADS: u64 = 4;
    const OPS: u64 = 3_000;
    const SPACE: u64 = 64;

    let drops = Arc::new(AtomicUsize::new(0));
    let created = Arc::new(AtomicUsize::new(0));
    {
        let list = Arc::new(FrList::<u64, Counted>::new());
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let list = list.clone();
                let drops = drops.clone();
                let created = created.clone();
                s.spawn(move || {
                    let h = list.handle();
                    let mut x = t | 1;
                    for _ in 0..OPS {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(13);
                        let k = (x >> 33) % SPACE;
                        if x & 1 == 0 {
                            created.fetch_add(1, Ordering::SeqCst);
                            if h.insert(k, Counted(drops.clone(), k)).is_err() {
                                // The pair is handed back and dropped here.
                            }
                        } else if let Some(v) = h.remove(&k) {
                            assert_eq!(v.1, k, "value for wrong key");
                        }
                    }
                    h.flush_reclamation();
                });
            }
        });
        list.validate_quiescent();
        // The iterator agrees with membership.
        let h = list.handle();
        let iter_keys: Vec<u64> = h.iter().map(|(k, _)| k).collect();
        assert_eq!(iter_keys.len(), list.len());
        for k in &iter_keys {
            assert!(h.contains(k));
        }
        let mut sorted = iter_keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(iter_keys, sorted);
    }
    // Every created value dropped exactly once (removals clone, so
    // drops >= created; but originals are all gone after list drop).
    assert!(
        drops.load(Ordering::SeqCst) >= created.load(Ordering::SeqCst),
        "leaked values: created {} dropped {}",
        created.load(Ordering::SeqCst),
        drops.load(Ordering::SeqCst)
    );
}

#[test]
fn skiplist_churn_validates_and_frees() {
    const THREADS: u64 = 4;
    const OPS: u64 = 3_000;
    const SPACE: u64 = 128;

    let drops = Arc::new(AtomicUsize::new(0));
    let created = Arc::new(AtomicUsize::new(0));
    {
        let sl = Arc::new(SkipList::<u64, Counted>::new());
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let sl = sl.clone();
                let drops = drops.clone();
                let created = created.clone();
                s.spawn(move || {
                    let h = sl.handle();
                    let mut x = t.wrapping_mul(77) | 1;
                    for _ in 0..OPS {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(13);
                        let k = (x >> 33) % SPACE;
                        if x & 1 == 0 {
                            created.fetch_add(1, Ordering::SeqCst);
                            let _ = h.insert(k, Counted(drops.clone(), k));
                        } else if let Some(v) = h.remove(&k) {
                            assert_eq!(v.1, k, "value for wrong key");
                        }
                    }
                    h.flush_reclamation();
                });
            }
        });
        // Clean any helper leftovers, then validate all levels.
        {
            let h = sl.handle();
            for k in 0..SPACE {
                let _ = h.contains(&k);
            }
        }
        sl.validate_quiescent();
        let h = sl.handle();
        let iter_keys: Vec<u64> = h.iter().map(|(k, _)| k).collect();
        assert_eq!(iter_keys.len(), sl.len());
    }
    assert!(
        drops.load(Ordering::SeqCst) >= created.load(Ordering::SeqCst),
        "leaked values: created {} dropped {}",
        created.load(Ordering::SeqCst),
        drops.load(Ordering::SeqCst)
    );
}

#[test]
fn skiplist_interrupted_constructions_leave_no_debris() {
    // Hammer a tiny key space so deletions constantly interrupt tower
    // construction, then verify full structural integrity.
    const ROUNDS: u64 = 4_000;
    let sl = Arc::new(SkipList::<u64, u64>::new());
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let sl = sl.clone();
            s.spawn(move || {
                let h = sl.handle();
                for r in 0..ROUNDS {
                    let k = (r * (t + 1)) % 4;
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
    for k in 0..4u64 {
        let _ = h.contains(&k);
    }
    sl.validate_quiescent();
}

#[test]
fn list_many_handles_same_thread() {
    let list = FrList::<u64, u64>::new();
    // Handles can be created and dropped freely; slot recycling must
    // not corrupt reclamation state.
    for round in 0..50 {
        let h = list.handle();
        h.insert(round, round).unwrap();
        let h2 = list.handle();
        assert!(h2.contains(&round));
        assert_eq!(h.remove(&round), Some(round));
    }
    assert!(list.is_empty());
    list.validate_quiescent();
}
