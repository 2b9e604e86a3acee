//! E7 — closed-loop async serving (`lf-async` over list and skip list).
//!
//! The paper's amortized bound is per *operation*; the serving façade
//! claims batching preserves it end-to-end (DESIGN.md §10): a lane
//! worker drains up to `batch_max` requests under one epoch
//! announcement, so the per-request overhead of the async layer is one
//! ring round-trip plus an amortized pin share. This experiment drives
//! the service closed-loop — D driver threads, each multiplexing T
//! in-flight request tasks on the hand-rolled `lf_sched::rt` executor —
//! and reports service throughput and the enqueue-to-complete latency
//! distribution recorded by the service's own `lf-metrics` histograms.
//!
//! A second, **open-loop** section drives the same service at a fixed
//! offered rate with fire-and-forget submission (each future is polled
//! once to enqueue, then detached): unlike the closed loop — whose
//! submitters slow down when the service does — the open loop keeps
//! offering work at the configured rate, so overload actually
//! materializes and the `Reject`/`Shed` backpressure policies earn
//! their keep. Offered load is expressed as a ratio of the service's
//! measured saturation capacity; each (policy, ratio) run reports the
//! shed/reject rate and the enqueue-to-complete tail of the requests
//! that did complete.
//!
//! Emits `BENCH_e7.json`: one row per (structure, workers) for the
//! closed loop plus one row per (policy, offered-ratio) for the open
//! loop, with throughput, e2c p50/p99, and the full nested histograms.

use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::{Duration, Instant};

use lf_async::{
    AsyncBackend, AsyncSkipList, BackpressurePolicy, Service, ServiceBuilder, ServiceSnapshot,
};
use lf_core::{FrList, MapHandle, SkipList};
use lf_metrics::export::{histogram_json, JsonObj};
use lf_sched::rt;
use lf_workloads::{KeyDist, Mix, OpKind, WorkloadIter};

use crate::table::{fmt_f, Table};

use super::write_bench_artifact;

/// Drive `service` closed-loop and return (elapsed seconds, snapshot).
///
/// Every request is awaited (Block policy, nothing sheds), so the
/// submitted count *is* the completed count.
fn drive<B>(
    service: Arc<Service<B>>,
    drivers: usize,
    tasks_per_driver: usize,
    ops_per_task: u64,
    space: u64,
) -> (f64, ServiceSnapshot)
where
    B: AsyncBackend<Key = u64, Value = u64>,
{
    let started = Instant::now();
    let threads: Vec<_> = (0..drivers)
        .map(|d| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                let futs: Vec<Pin<Box<dyn Future<Output = ()> + Send>>> = (0..tasks_per_driver)
                    .map(|t| -> Pin<Box<dyn Future<Output = ()> + Send>> {
                        let service = Arc::clone(&service);
                        Box::pin(async move {
                            let seed = 0xE700_0000u64 | ((d as u64) << 16) | t as u64;
                            let mut w = WorkloadIter::new(
                                Mix::READ_HEAVY,
                                KeyDist::Uniform { space },
                                seed,
                            );
                            for _ in 0..ops_per_task {
                                let op = w.next_op();
                                let r = match op.kind {
                                    OpKind::Insert => service.insert(op.key, op.key).await,
                                    OpKind::Remove => service.remove(op.key).await,
                                    OpKind::Search => service.get(op.key).await,
                                };
                                r.expect("closed-loop op never fails before shutdown");
                            }
                        })
                    })
                    .collect();
                rt::run_all(futs);
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let elapsed = started.elapsed().as_secs_f64();
    (elapsed, service.metrics())
}

struct Config {
    structure: &'static str,
    workers: usize,
}

/// Poll a future exactly once with a no-op waker (fire-and-forget: the
/// first poll enqueues the request; the detached op then completes —
/// or is shed — without anyone awaiting it).
fn poll_once<F: Future + Unpin>(fut: &mut F) -> Poll<F::Output> {
    let mut cx = Context::from_waker(std::task::Waker::noop());
    Pin::new(fut).poll(&mut cx)
}

/// Build a prefilled skip-list service for the open-loop runs.
fn open_loop_service(
    workers: usize,
    queue_capacity: usize,
    policy: BackpressurePolicy,
    space: u64,
) -> AsyncSkipList<u64, u64> {
    let sl = SkipList::new();
    {
        let h = sl.handle();
        for k in (0..space).step_by(2) {
            let _ = h.insert(k, k);
        }
    }
    ServiceBuilder::new()
        .workers(workers)
        .queue_capacity(queue_capacity)
        .batch_max(64)
        .policy(policy)
        .build(sl)
}

/// Submit `offered` fire-and-forget requests at `rate` ops/s, wait for
/// the queue to drain, and return (elapsed submit seconds, snapshot).
///
/// Pacing is deadline-based: each submission waits for its slot on the
/// fixed-rate schedule, so a slow service does **not** slow the
/// submitter down — the definition of an open loop. Rejected
/// submissions still consume their slot (the client "sent" that
/// request; the service refused it).
fn drive_open_loop<B>(
    service: &Service<B>,
    offered: u64,
    rate: f64,
    space: u64,
) -> (f64, ServiceSnapshot)
where
    B: AsyncBackend<Key = u64, Value = u64>,
{
    let mut w = WorkloadIter::new(Mix::READ_HEAVY, KeyDist::Uniform { space }, 0xE7_0B);
    let interval = Duration::from_secs_f64(1.0 / rate);
    let started = Instant::now();
    let mut next = started;
    for _ in 0..offered {
        while Instant::now() < next {
            std::hint::spin_loop();
        }
        next += interval;
        let op = w.next_op();
        match op.kind {
            OpKind::Insert => {
                let mut f = service.insert(op.key, op.key);
                let _ = poll_once(&mut f);
            }
            OpKind::Remove => {
                let mut f = service.remove(op.key);
                let _ = poll_once(&mut f);
            }
            OpKind::Search => {
                let mut f = service.get(op.key);
                let _ = poll_once(&mut f);
            }
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    // Drain: sheds happen at submission time, so once submission stops
    // the remaining enqueued requests simply complete.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let m = service.metrics();
        if m.completed + m.shed >= m.enqueued || Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    (elapsed, service.metrics())
}

/// Measure the service's saturation capacity (completed ops/s) with an
/// unpaced fire-and-forget burst under `Shed` (submission never blocks
/// or fails, so the workers run flat out the whole burst).
fn probe_capacity(workers: usize, queue_capacity: usize, space: u64, burst: u64) -> f64 {
    let service = open_loop_service(workers, queue_capacity, BackpressurePolicy::Shed, space);
    let mut w = WorkloadIter::new(Mix::READ_HEAVY, KeyDist::Uniform { space }, 0xE7_0A);
    let started = Instant::now();
    for _ in 0..burst {
        let op = w.next_op();
        let mut f = service.get(op.key);
        let _ = poll_once(&mut f);
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let m = service.metrics();
        if m.completed + m.shed >= m.enqueued || Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let completed = service.metrics().completed;
    let elapsed = started.elapsed().as_secs_f64();
    service.shutdown();
    (completed as f64 / elapsed).max(1.0)
}

/// Print the serving table and write `BENCH_e7.json`.
pub fn run(quick: bool) {
    println!("E7: closed-loop async serving throughput & latency (read-heavy)\n");
    // Flight-recorder hook for the CI smoke job: with LF_TRACE_DUMP
    // set, the whole run is traced and the merged rings are dumped at
    // the end, so `lf-trace check` can audit a real serving workload
    // end-to-end. Perf rows from a traced run are not comparable to
    // the recorded `BENCH_e7.json` output.
    let trace_dump = lf_trace::recorder::env_dump_path();
    if trace_dump.is_some() {
        lf_trace::enable();
    }
    // Quick mode keeps the load *shape* (drivers × in-flight tasks) and
    // only cuts ops per task, so a quick run's rows line up with the
    // recorded full-size output's row-for-row.
    let drivers = 4;
    let tasks_per_driver = 64;
    let ops_per_task: u64 = if quick { 150 } else { 1_000 };
    let space: u64 = 4_096;
    let total = (drivers * tasks_per_driver) as u64 * ops_per_task;

    let configs = [
        Config {
            structure: "fr-list",
            workers: 1,
        },
        Config {
            structure: "fr-list",
            workers: 2,
        },
        Config {
            structure: "fr-skiplist",
            workers: 1,
        },
        Config {
            structure: "fr-skiplist",
            workers: 2,
        },
        Config {
            structure: "fr-skiplist",
            workers: 4,
        },
    ];

    let mut table = Table::new([
        "impl",
        "workers",
        "drivers×tasks",
        "Mops/s",
        "e2c p50 µs",
        "e2c p99 µs",
        "mean batch",
    ]);
    let mut rows = Vec::new();

    for cfg in &configs {
        let builder = ServiceBuilder::new()
            .workers(cfg.workers)
            .queue_capacity(1_024)
            .batch_max(64);
        // Prepopulate half the key space *before* the service exists,
        // so its metrics cover only the measured closed-loop phase.
        let (elapsed, snap) = match cfg.structure {
            "fr-list" => {
                let list = FrList::new();
                {
                    let h = list.handle();
                    for k in (0..space).step_by(2) {
                        let _ = h.insert(k, k);
                    }
                }
                let service = Arc::new(builder.build(list));
                let out = drive(
                    Arc::clone(&service),
                    drivers,
                    tasks_per_driver,
                    ops_per_task,
                    space,
                );
                service.shutdown();
                out
            }
            _ => {
                let sl = SkipList::new();
                {
                    let h = sl.handle();
                    for k in (0..space).step_by(2) {
                        let _ = h.insert(k, k);
                    }
                }
                let service = Arc::new(builder.build(sl));
                let out = drive(
                    Arc::clone(&service),
                    drivers,
                    tasks_per_driver,
                    ops_per_task,
                    space,
                );
                service.shutdown();
                out
            }
        };

        assert_eq!(snap.completed, total, "closed loop lost operations");
        let throughput = total as f64 / elapsed;
        let e2c = &snap.enqueue_to_complete_ns;
        table.row([
            cfg.structure.to_string(),
            cfg.workers.to_string(),
            format!("{drivers}×{tasks_per_driver}"),
            fmt_f(throughput / 1e6),
            fmt_f(e2c.p50() as f64 / 1e3),
            fmt_f(e2c.p99() as f64 / 1e3),
            fmt_f(snap.batch_size.mean()),
        ]);
        rows.push(
            JsonObj::new()
                .field_str("experiment", "e7")
                .field_str("impl", cfg.structure)
                .field_str("mix", "read_heavy")
                .field_u64("drivers", drivers as u64)
                .field_u64("tasks_per_driver", tasks_per_driver as u64)
                .field_u64("workers", cfg.workers as u64)
                .field_u64("ops", total)
                .field_f64("throughput_ops_per_s", throughput)
                .field_u64("e2c_p50_ns", e2c.p50())
                .field_u64("e2c_p99_ns", e2c.p99())
                .field_raw("enqueue_to_complete_ns", &histogram_json(e2c))
                .field_raw("queue_depth", &histogram_json(&snap.queue_depth))
                .field_raw("batch_size", &histogram_json(&snap.batch_size))
                .finish(),
        );
    }

    print!("{table}");
    println!(
        "\nclosed loop: every request awaited; Block policy, so completed == submitted\n\
         (asserted). e2c = enqueue-to-complete, from the service's own histograms.\n"
    );

    // ---- Open loop: fixed offered rate vs Reject / Shed ----

    let ol_workers = 2;
    let ol_capacity_q = 256;
    let burst: u64 = if quick { 20_000 } else { 100_000 };
    let offered: u64 = if quick { 8_000 } else { 40_000 };
    let capacity = probe_capacity(ol_workers, ol_capacity_q, space, burst);
    println!(
        "open loop (fr-skiplist, {ol_workers} workers, queue {ol_capacity_q}): \
         measured capacity {} kops/s",
        fmt_f(capacity / 1e3)
    );

    let mut ol_table = Table::new([
        "policy",
        "offered",
        "rate kops/s",
        "shed %",
        "e2c p50 µs",
        "e2c p99 µs",
    ]);
    for policy in [BackpressurePolicy::Reject, BackpressurePolicy::Shed] {
        for (tag, ratio) in [("x05", 0.5), ("x10", 1.0), ("x20", 2.0)] {
            let rate = capacity * ratio;
            let service = open_loop_service(ol_workers, ol_capacity_q, policy, space);
            let (elapsed, snap) = drive_open_loop(&service, offered, rate, space);
            service.shutdown();

            let policy_name = match policy {
                BackpressurePolicy::Reject => "reject",
                BackpressurePolicy::Shed => "shed",
                BackpressurePolicy::Block => "block",
            };
            let dropped = snap.rejected + snap.shed;
            let shed_rate = dropped as f64 / offered as f64;
            let e2c = &snap.enqueue_to_complete_ns;
            ol_table.row([
                policy_name.to_string(),
                format!("{:.1}x", ratio),
                fmt_f(offered as f64 / elapsed / 1e3),
                fmt_f(shed_rate * 100.0),
                fmt_f(e2c.p50() as f64 / 1e3),
                fmt_f(e2c.p99() as f64 / 1e3),
            ]);
            rows.push(
                JsonObj::new()
                    .field_str("experiment", "e7")
                    .field_str("impl", "fr-skiplist")
                    .field_str("mix", &format!("open_loop_{policy_name}_{tag}"))
                    .field_u64("workers", ol_workers as u64)
                    .field_u64("ops", snap.completed)
                    .field_u64("offered", offered)
                    .field_f64("offered_ratio", ratio)
                    .field_f64("offered_rate_ops_per_s", offered as f64 / elapsed)
                    .field_f64("capacity_ops_per_s", capacity)
                    .field_u64("rejected", snap.rejected)
                    .field_u64("shed", snap.shed)
                    .field_f64("shed_rate", shed_rate)
                    .field_f64("throughput_ops_per_s", snap.completed as f64 / elapsed)
                    .field_u64("e2c_p50_ns", e2c.p50())
                    .field_u64("e2c_p99_ns", e2c.p99())
                    .field_raw("enqueue_to_complete_ns", &histogram_json(e2c))
                    .field_raw("queue_depth", &histogram_json(&snap.queue_depth))
                    .finish(),
            );
        }
    }
    print!("{ol_table}");
    println!(
        "\nopen loop: fire-and-forget at a fixed offered rate (ratio of measured\n\
         capacity). Below saturation both policies shed ~nothing; past it, Reject\n\
         fails fast at enqueue (bounded e2c for the admitted) while Shed admits\n\
         everyone and evicts the oldest, trading drop choice for full queues."
    );
    write_bench_artifact("e7", quick, &rows);

    if let Some(path) = trace_dump {
        match lf_trace::recorder::dump_to_path(&path, "experiment") {
            Ok(n) => println!("\nflight recorder: {n} events -> {}", path.display()),
            Err(e) => eprintln!("\nflight recorder: dump to {} failed: {e}", path.display()),
        }
        lf_trace::disable();
    }
}
