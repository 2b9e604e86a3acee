//! Long-running randomized soak with periodic structural validation —
//! the manual burn-in tool for the lock-free structures.
//!
//! ```text
//! soak [seconds] [threads]     (defaults: 10 seconds, 4 threads)
//! ```
//!
//! Rounds alternate between the FR list and the FR skip list: each
//! round churns a random mix from all threads, quiesces, validates
//! every structural invariant, checks the iterator against membership,
//! and prints a one-line summary. Any violation panics with the seed
//! so the round can be replayed.
//!
//! Telemetry: every round is wrapped in
//! `Registry::join_and_snapshot`, and its summary line carries the
//! round's latency percentiles and worst-case CAS-retry chain. On
//! completion the run's cumulative telemetry is printed once in
//! Prometheus text exposition format (pipe to a textfile collector or
//! just read the quantiles).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use lf_core::{FrList, MapHandle, SkipList};
use lf_workloads::{KeyDist, Mix, OpKind, WorkloadIter};

fn churn_round_list(seed: u64, threads: usize, ops: u64) -> (usize, u64) {
    let list = FrList::<u64, u64>::new();
    let total_ops = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..threads {
            let list = &list;
            let total_ops = &total_ops;
            s.spawn(move || {
                let h = list.handle();
                let mut w = WorkloadIter::new(
                    Mix::UPDATE_HEAVY,
                    KeyDist::Uniform { space: 512 },
                    seed ^ (t as u64).wrapping_mul(0x9E3779B97F4A7C15),
                );
                for _ in 0..ops {
                    let op = w.next_op();
                    match op.kind {
                        OpKind::Insert => {
                            let _ = h.insert(op.key, op.key);
                        }
                        OpKind::Remove => {
                            let _ = h.remove(&op.key);
                        }
                        OpKind::Search => {
                            let _ = h.contains(&op.key);
                        }
                    }
                    total_ops.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    list.validate_quiescent();
    let h = list.handle();
    let iter_count = h.iter().count();
    assert_eq!(iter_count, list.len(), "iterator disagrees with len");
    (iter_count, total_ops.load(Ordering::Relaxed))
}

fn churn_round_skiplist(seed: u64, threads: usize, ops: u64) -> (usize, u64) {
    let sl = SkipList::<u64, u64>::new();
    let total_ops = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..threads {
            let sl = &sl;
            let total_ops = &total_ops;
            s.spawn(move || {
                let h = sl.handle();
                let mut w = WorkloadIter::new(
                    Mix::UPDATE_HEAVY,
                    KeyDist::Zipfian {
                        space: 1024,
                        theta: 0.9,
                    },
                    seed ^ (t as u64).wrapping_mul(0xD1B54A32D192ED03),
                );
                for _ in 0..ops {
                    let op = w.next_op();
                    match op.kind {
                        OpKind::Insert => {
                            let _ = h.insert(op.key, op.key);
                        }
                        OpKind::Remove => {
                            let _ = h.remove(&op.key);
                        }
                        OpKind::Search => {
                            let _ = h.contains(&op.key);
                        }
                    }
                    total_ops.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    // Sweep leftovers a stalled helper may have abandoned, then check
    // every level.
    {
        let h = sl.handle();
        for k in 0..1024u64 {
            let _ = h.contains(&k);
        }
    }
    sl.validate_quiescent();
    let h = sl.handle();
    let iter_count = h.iter().count();
    assert_eq!(iter_count, sl.len(), "iterator disagrees with len");
    (iter_count, total_ops.load(Ordering::Relaxed))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seconds: u64 = args.first().and_then(|a| a.parse().ok()).unwrap_or(10);
    let threads: usize = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(4);

    println!("soaking for {seconds}s with {threads} threads (panics on any violation)");
    let start = lf_metrics::telemetry();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut round = 0u64;
    let mut grand_total = 0u64;
    while Instant::now() < deadline {
        let seed = 0xC0FFEE ^ round.wrapping_mul(0x9E3779B97F4A7C15);
        let ((size, ops), tel) = lf_metrics::Registry::join_and_snapshot(|| {
            if round.is_multiple_of(2) {
                churn_round_list(seed, threads, 4_000)
            } else {
                churn_round_skiplist(seed, threads, 4_000)
            }
        });
        grand_total += ops;
        let lat = tel.op_latency_ns();
        println!(
            "round {round:>4} [{}] seed {seed:#018x}: {ops} ops, final size {size}, validated OK \
             | lat_ns p50={} p99={} p999={} max={} | retries p99={} max={}",
            if round.is_multiple_of(2) {
                "list    "
            } else {
                "skiplist"
            },
            lat.p50(),
            lat.p99(),
            lat.p999(),
            lat.max(),
            tel.cas_retries().p99(),
            tel.cas_retries().max(),
        );
        round += 1;
    }
    println!("soak complete: {round} rounds, {grand_total} ops, zero violations");
    let total = lf_metrics::telemetry() - start;
    println!("\n--- cumulative telemetry (Prometheus text exposition) ---");
    print!("{}", lf_metrics::export::telemetry_prometheus(&total));
}
