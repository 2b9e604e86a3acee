//! Serve a lock-free skip list through the `lf-async` façade: >100k
//! mixed operations from concurrent driver threads, each multiplexing
//! dozens of in-flight request tasks, then a graceful shutdown with an
//! exact accounting — and a drop-count audit proving that nothing
//! (nodes, payloads, detached futures) leaked.
//!
//! ```sh
//! cargo run --release --example async_service
//! ```

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use lf_async::{AsyncSkipList, BackpressurePolicy, Request, ServiceBuilder};
use lf_core::SkipList;
use lf_sched::rt;
use lf_workloads::{KeyDist, Mix, OpKind, WorkloadIter};

const DRIVERS: usize = 4;
const TASKS_PER_DRIVER: usize = 64;
const OPS_PER_TASK: u64 = 400; // 4 × 64 × 400 = 102 400 ops
const KEY_SPACE: u64 = 8_192;

/// Every live value (original or clone handed out by the service)
/// bumps this; every drop decrements. Zero at the end proves the
/// structure, the queues, and every detached future released their
/// payloads.
static LIVE_VALUES: AtomicI64 = AtomicI64::new(0);

#[derive(Debug)]
struct Payload(u64);

impl Payload {
    fn new(v: u64) -> Self {
        LIVE_VALUES.fetch_add(1, Ordering::Relaxed);
        Payload(v)
    }
}

impl Clone for Payload {
    fn clone(&self) -> Self {
        Payload::new(self.0)
    }
}

impl Drop for Payload {
    fn drop(&mut self) {
        LIVE_VALUES.fetch_sub(1, Ordering::Relaxed);
    }
}

fn main() {
    let service: Arc<AsyncSkipList<u64, Payload>> = Arc::new(
        ServiceBuilder::new()
            .workers(4)
            .queue_capacity(1_024)
            .batch_max(64)
            .policy(BackpressurePolicy::Block)
            .build(SkipList::new()),
    );

    let executed = Arc::new(AtomicU64::new(0));
    let started = std::time::Instant::now();
    let drivers: Vec<_> = (0..DRIVERS)
        .map(|d| {
            let service = Arc::clone(&service);
            let executed = Arc::clone(&executed);
            std::thread::spawn(move || {
                let tasks: Vec<Pin<Box<dyn Future<Output = ()> + Send>>> = (0..TASKS_PER_DRIVER)
                    .map(|t| -> Pin<Box<dyn Future<Output = ()> + Send>> {
                        let service = Arc::clone(&service);
                        let executed = Arc::clone(&executed);
                        Box::pin(async move {
                            let seed = (d as u64) << 32 | t as u64;
                            let mut w = WorkloadIter::new(
                                Mix::UPDATE_HEAVY,
                                KeyDist::Uniform { space: KEY_SPACE },
                                seed,
                            );
                            for _ in 0..OPS_PER_TASK {
                                let op = w.next_op();
                                let r = match op.kind {
                                    OpKind::Insert => {
                                        service.insert(op.key, Payload::new(op.key)).await
                                    }
                                    OpKind::Remove => service.remove(op.key).await,
                                    OpKind::Search => service.get(op.key).await,
                                };
                                r.expect("no backpressure failure under Block policy");
                                executed.fetch_add(1, Ordering::Relaxed);
                            }
                        })
                    })
                    .collect();
                rt::run_all(tasks);
            })
        })
        .collect();
    for d in drivers {
        d.join().unwrap();
    }
    let elapsed = started.elapsed();

    // A few futures deliberately dropped mid-flight: submitted on first
    // poll, then abandoned. The ops execute detached; their results are
    // discarded with the completion cells — nothing leaks.
    for k in 0..32u64 {
        let mut fut = service.insert(KEY_SPACE + k, Payload::new(k));
        let mut cx = std::task::Context::from_waker(std::task::Waker::noop());
        let _ = Pin::new(&mut fut).poll(&mut cx);
        drop(fut);
    }

    service.shutdown();

    let total = executed.load(Ordering::Relaxed);
    let m = service.metrics();
    println!(
        "executed {total} awaited ops (+32 detached) in {elapsed:.2?} — \
         {:.0} kops/s end-to-end",
        total as f64 / elapsed.as_secs_f64() / 1e3
    );
    println!(
        "service accounting: enqueued {} = completed {} + shed {} + shutdown_dropped {}",
        m.enqueued, m.completed, m.shed, m.shutdown_dropped
    );
    assert_eq!(m.enqueued, m.completed + m.shed + m.shutdown_dropped);
    assert!(m.completed >= total, "every awaited op completed");
    println!(
        "enqueue-to-complete: p50 {} µs, p99 {} µs; mean batch {:.1}; {} keys live",
        m.enqueue_to_complete_ns.p50() / 1_000,
        m.enqueue_to_complete_ns.p99() / 1_000,
        m.batch_size.mean(),
        service.len(),
    );

    // Post-shutdown submissions fail cleanly instead of hanging.
    assert!(matches!(
        rt::block_on(service.op(Request::Len)),
        Err(lf_async::Error::Shutdown)
    ));

    println!("\n--- prometheus exposition (excerpt) ---");
    for line in m.to_prometheus().lines().take(9) {
        println!("{line}");
    }

    // Drop the service (and with it the skip list + epoch collector):
    // the drop-count audit must come back to zero.
    drop(service);
    let live = LIVE_VALUES.load(Ordering::Relaxed);
    assert_eq!(live, 0, "leaked {live} payloads");
    println!("\nclean shutdown: all workers joined, zero leaked payloads");
}
