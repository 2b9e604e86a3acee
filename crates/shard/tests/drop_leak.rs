//! Sharded teardown leaks nothing: every value instance created by the
//! tests (inserts plus clones handed out by `remove`/`get`) is dropped
//! exactly once across epoch reclamation and map drop — the shared
//! reclamation domain fires its deferred bags when the last shard and
//! handle are gone.

use std::sync::atomic::{AtomicIsize, Ordering};
use std::thread;

use lf_core::MapHandle;
use lf_shard::ShardedSkipList;

/// Value type whose live-instance count is tracked through every
/// construction, clone, and drop.
#[derive(Debug)]
struct Counted(u64, &'static AtomicIsize);

impl Counted {
    fn new(v: u64, live: &'static AtomicIsize) -> Self {
        live.fetch_add(1, Ordering::Relaxed);
        Counted(v, live)
    }
}

impl Clone for Counted {
    fn clone(&self) -> Self {
        self.1.fetch_add(1, Ordering::Relaxed);
        Counted(self.0, self.1)
    }
}

impl Drop for Counted {
    fn drop(&mut self) {
        self.1.fetch_sub(1, Ordering::Relaxed);
    }
}

#[test]
fn sharded_teardown_drops_everything() {
    static LIVE: AtomicIsize = AtomicIsize::new(0);
    let n: u64 = if cfg!(miri) { 48 } else { 600 };
    {
        let map: ShardedSkipList<u64, Counted> = ShardedSkipList::new(8);
        {
            let h = map.handle();
            for k in 0..n {
                assert!(h.insert(k, Counted::new(k, &LIVE)).is_ok());
            }
            // Remove a third: clones come out, the towers are retired
            // into the shared domain's bags.
            for k in (0..n).step_by(3) {
                let v = h.remove(&k).expect("key was present");
                assert_eq!(v.0, k);
            }
            // Re-insert over some removed keys to exercise pooled
            // tower reuse with live drop counting.
            for k in (0..n).step_by(6) {
                assert!(h.insert(k, Counted::new(k, &LIVE)).is_ok());
            }
            h.flush_reclamation();
        }
        assert!(!map.is_empty());
        // `map` drops here: per-shard nodes, then the shared collector
        // with every still-deferred bag.
    }
    assert_eq!(
        LIVE.load(Ordering::Relaxed),
        0,
        "sharded teardown leaked (positive) or double-dropped (negative) values"
    );
}

#[test]
fn concurrent_churn_then_teardown_drops_everything() {
    static LIVE: AtomicIsize = AtomicIsize::new(0);
    let (threads, per_thread) = if cfg!(miri) { (2u64, 24u64) } else { (4, 400) };
    {
        let map: ShardedSkipList<u64, Counted> = ShardedSkipList::new(4);
        thread::scope(|s| {
            for t in 0..threads {
                let map = &map;
                s.spawn(move || {
                    let h = map.handle();
                    for i in 0..per_thread {
                        // Overlapping key ranges across threads so
                        // inserts collide and removes race.
                        let k = (t * per_thread / 2 + i) % (threads * per_thread / 2);
                        let _ = h.insert(k, Counted::new(k, &LIVE));
                        if i % 2 == 0 {
                            let _ = h.remove(&k);
                        }
                    }
                    h.flush_reclamation();
                });
            }
        });
    }
    assert_eq!(
        LIVE.load(Ordering::Relaxed),
        0,
        "churned teardown leaked (positive) or double-dropped (negative) values"
    );
}
