//! Heavy stress tests, `#[ignore]`d by default — run on demand with
//! `cargo test --release -- --ignored` (they take minutes in debug).

use std::sync::Arc;

use lockfree_lists::baselines::{HarrisList, MichaelList};
use lockfree_lists::{FrList, MapHandle, SkipList};

#[test]
#[ignore = "heavy: run with --ignored (release recommended)"]
fn fr_list_heavy_churn() {
    const THREADS: u64 = 8;
    const OPS: u64 = 50_000;
    let list = Arc::new(FrList::<u64, u64>::new());
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let list = list.clone();
            s.spawn(move || {
                let h = list.handle();
                let mut x = t | 1;
                for _ in 0..OPS {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(13);
                    let k = (x >> 33) % 1024;
                    if x & 1 == 0 {
                        let _ = h.insert(k, k);
                    } else {
                        let _ = h.remove(&k);
                    }
                }
                h.flush_reclamation();
            });
        }
    });
    list.validate_quiescent();
}

#[test]
#[ignore = "heavy: run with --ignored (release recommended)"]
fn skiplist_heavy_churn_large_keyspace() {
    const THREADS: u64 = 8;
    const OPS: u64 = 50_000;
    const SPACE: u64 = 65_536;
    let sl = Arc::new(SkipList::<u64, u64>::new());
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let sl = sl.clone();
            s.spawn(move || {
                let h = sl.handle();
                let mut x = t.wrapping_mul(99) | 1;
                for _ in 0..OPS {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(13);
                    let k = (x >> 33) % SPACE;
                    match x % 4 {
                        0 | 1 => {
                            let _ = h.insert(k, k);
                        }
                        2 => {
                            let _ = h.remove(&k);
                        }
                        _ => {
                            let _ = h.contains(&k);
                        }
                    }
                }
                h.flush_reclamation();
            });
        }
    });
    {
        let h = sl.handle();
        for k in 0..SPACE {
            let _ = h.contains(&k);
        }
    }
    sl.validate_quiescent();
}

#[test]
#[ignore = "heavy: run with --ignored (release recommended)"]
fn harris_and_michael_heavy_churn() {
    const THREADS: u64 = 8;
    const OPS: u64 = 30_000;
    let harris = Arc::new(HarrisList::<u64, u64>::new());
    let michael = Arc::new(MichaelList::<u64, u64>::new());
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let harris = harris.clone();
            let michael = michael.clone();
            s.spawn(move || {
                let hh = harris.handle();
                let mh = michael.handle();
                let mut x = t.wrapping_mul(31) | 1;
                for _ in 0..OPS {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(7);
                    let k = (x >> 33) % 512;
                    if x & 1 == 0 {
                        let _ = hh.insert(k, k);
                        let _ = mh.insert(k, k);
                    } else {
                        let _ = hh.remove(&k);
                        let _ = mh.remove(&k);
                    }
                }
            });
        }
    });
    harris.validate_quiescent();
    michael.validate_quiescent();
}
