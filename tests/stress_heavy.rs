//! Heavy stress tests, `#[ignore]`d by default — run on demand with
//! `cargo test --release -- --ignored` (they take minutes in debug).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use lockfree_lists::baselines::{HarrisList, MichaelList, RestartSkipList};
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

/// Guards the restart skip list against livelock: 8 threads × 30 000
/// ops over 64 hot keys (40 % insert, 40 % remove, 20 % get), round
/// after round, with per-key accounting and the quiescent structure
/// check after each. A live-locked insert never returns, so the rounds
/// run on their own thread and the test fails at a wall-clock deadline
/// instead of hanging.
#[test]
#[ignore = "heavy: run with --ignored (release recommended)"]
fn restart_skiplist_hot_keys_no_livelock() {
    const THREADS: u64 = 8;
    const OPS: u64 = 30_000;
    const KEYS: usize = 64;
    const ROUNDS: u64 = 400;
    // ~15 s in release on 2 vCPUs; an unoptimized build is far slower.
    const DEADLINE: Duration = Duration::from_secs(if cfg!(debug_assertions) { 1800 } else { 120 });

    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || {
        let sl = RestartSkipList::<u64, u64>::new();
        let ins_ok: Vec<AtomicU64> = (0..KEYS).map(|_| AtomicU64::new(0)).collect();
        let rem_ok: Vec<AtomicU64> = (0..KEYS).map(|_| AtomicU64::new(0)).collect();
        for round in 0..ROUNDS {
            std::thread::scope(|s| {
                for t in 0..THREADS {
                    let (sl, ins_ok, rem_ok) = (&sl, &ins_ok, &rem_ok);
                    s.spawn(move || {
                        let h = sl.handle();
                        let mut x = (round * THREADS + t).wrapping_mul(0x9E3779B97F4A7C15) | 1;
                        for _ in 0..OPS {
                            x = x
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add(1442695040888963407);
                            let k = ((x >> 33) as usize) % KEYS;
                            match (x >> 20) % 10 {
                                0..=3 => {
                                    if h.insert(k as u64, k as u64).is_ok() {
                                        ins_ok[k].fetch_add(1, Ordering::SeqCst);
                                    }
                                }
                                4..=7 => {
                                    if h.remove(&(k as u64)).is_some() {
                                        rem_ok[k].fetch_add(1, Ordering::SeqCst);
                                    }
                                }
                                _ => {
                                    let _ = h.contains(&(k as u64));
                                }
                            }
                        }
                    });
                }
            });
            let h = sl.handle();
            for k in 0..KEYS {
                let i = ins_ok[k].load(Ordering::SeqCst);
                let r = rem_ok[k].load(Ordering::SeqCst);
                assert!(
                    i == r || i == r + 1,
                    "round {round}, key {k}: {i} successful inserts vs {r} successful removes"
                );
                assert_eq!(
                    h.contains(&(k as u64)),
                    i == r + 1,
                    "round {round}, key {k}: presence disagrees with win counts"
                );
            }
            drop(h);
            sl.validate_quiescent();
        }
        let _ = done.send(());
    });
    match finished.recv_timeout(DEADLINE) {
        Ok(()) => {}
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("{ROUNDS} rounds did not finish within {DEADLINE:?}: livelock")
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            panic!("a round failed its accounting or structure check (see its panic above)")
        }
    }
}
