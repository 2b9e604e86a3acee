//! Reclamation actually reclaims: nodes retired during operation are
//! freed *before* the structure drops, and a stalled reader only
//! delays (never corrupts) reclamation.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use lockfree_lists::{FrList, MapHandle, SkipList};

#[derive(Clone, Debug)]
struct Counted(Arc<AtomicUsize>);

impl Drop for Counted {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn list_frees_removed_nodes_before_drop() {
    let drops = Arc::new(AtomicUsize::new(0));
    let list = FrList::<u64, Counted>::new();
    let h = list.handle();
    const N: u64 = 500;
    for k in 0..N {
        h.insert(k, Counted(drops.clone())).unwrap();
    }
    for k in 0..N {
        // `remove` clones the value; drop the clone immediately so the
        // remaining drop count measures only the stored originals.
        drop(h.remove(&k));
    }
    // Clones dropped above account for N; originals are freed as the
    // epochs advance.
    for _ in 0..32 {
        h.flush_reclamation();
    }
    let freed_originals = drops.load(Ordering::SeqCst).saturating_sub(N as usize);
    assert!(
        freed_originals >= (N as usize) * 9 / 10,
        "only {freed_originals}/{N} originals freed before drop"
    );
    drop(h);
    drop(list);
    assert_eq!(drops.load(Ordering::SeqCst), 2 * N as usize);
}

#[test]
fn skiplist_frees_towers_before_drop() {
    let drops = Arc::new(AtomicUsize::new(0));
    let sl = SkipList::<u64, Counted>::new();
    let h = sl.handle();
    const N: u64 = 500;
    for k in 0..N {
        h.insert(k, Counted(drops.clone())).unwrap();
    }
    for k in 0..N {
        drop(h.remove(&k));
    }
    for _ in 0..32 {
        h.flush_reclamation();
    }
    let freed_originals = drops.load(Ordering::SeqCst).saturating_sub(N as usize);
    assert!(
        freed_originals >= (N as usize) * 9 / 10,
        "only {freed_originals}/{N} tower roots freed before drop"
    );
    drop(h);
    drop(sl);
    assert_eq!(drops.load(Ordering::SeqCst), 2 * N as usize);
}

#[test]
fn stalled_iterator_delays_but_does_not_break_reclamation() {
    let drops = Arc::new(AtomicUsize::new(0));
    let list = Arc::new(FrList::<u64, Counted>::new());
    let writer = list.handle();
    for k in 0..100 {
        writer.insert(k, Counted(drops.clone())).unwrap();
    }

    // A reader pins the epoch by holding an iterator mid-flight.
    let reader = list.handle();
    let mut iter = reader.iter();
    let first = iter.next();
    assert!(first.is_some());
    let drops_from_clones = 1; // the yielded clone when dropped below
    drop(first);

    // Writer removes everything while the reader is pinned.
    for k in 0..100 {
        drop(writer.remove(&k));
    }
    for _ in 0..32 {
        writer.flush_reclamation();
    }
    // Originals must NOT all be freed: the pinned reader protects them.
    let freed = drops
        .load(Ordering::SeqCst)
        .saturating_sub(100 + drops_from_clones);
    assert_eq!(freed, 0, "nodes freed under a live pin");

    // Release the reader. Dropping the guard alone is not enough:
    // handles amortize epoch pins, so the reader's announcement stays
    // standing until it operates again, quiesces, or drops. Quiesce it
    // explicitly — the documented release point for an idle handle.
    drop(iter);
    reader.quiesce();
    for _ in 0..32 {
        writer.flush_reclamation();
    }
    let freed = drops
        .load(Ordering::SeqCst)
        .saturating_sub(100 + drops_from_clones);
    assert!(freed >= 90, "reclamation stuck after unpin: {freed}");
}

#[test]
fn concurrent_removal_storm_frees_everything_eventually() {
    let drops = Arc::new(AtomicUsize::new(0));
    let clones = Arc::new(AtomicUsize::new(0));
    {
        let sl = Arc::new(SkipList::<u64, Counted>::new());
        {
            let h = sl.handle();
            for k in 0..800u64 {
                h.insert(k, Counted(drops.clone())).unwrap();
            }
        }
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let sl = sl.clone();
                let clones = clones.clone();
                s.spawn(move || {
                    let h = sl.handle();
                    for k in (t..800).step_by(4) {
                        if h.remove(&k).is_some() {
                            clones.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                    h.flush_reclamation();
                });
            }
        });
        assert_eq!(clones.load(Ordering::SeqCst), 800);
        assert!(sl.is_empty());
    }
    // 800 originals + 800 clones.
    assert_eq!(drops.load(Ordering::SeqCst), 1_600);
}
