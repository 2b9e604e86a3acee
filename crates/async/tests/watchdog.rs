//! Service-level stall detection: a lane worker wedged mid-batch (via
//! the injected stall hook) must trip the heartbeat watchdog and leave
//! a parseable flight-recorder dump that reconstructs the stalled op.
//!
//! One test per file: [`lf_async::install_stall_hook`] is a
//! process-global `OnceLock`, so a second test in this binary could
//! not install its own hook.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};
use std::time::{Duration, Instant};

use lf_async::{AsyncList, ServiceBuilder};
use lf_core::FrList;
use lf_sched::rt;

fn noop_waker() -> Waker {
    fn clone(_: *const ()) -> RawWaker {
        RawWaker::new(std::ptr::null(), &VTABLE)
    }
    fn noop(_: *const ()) {}
    static VTABLE: RawWakerVTable = RawWakerVTable::new(clone, noop, noop, noop);
    // SAFETY: every vtable entry is a no-op over a null data pointer.
    unsafe { Waker::from_raw(RawWaker::new(std::ptr::null(), &VTABLE)) }
}

/// Submission is lazy: an [`lf_async::OpFuture`] enqueues on its first
/// poll, so the test must poll once before the worker can wedge on it.
fn poll_once<F: Future + Unpin>(fut: &mut F) -> Poll<F::Output> {
    let w = noop_waker();
    let mut cx = Context::from_waker(&w);
    Pin::new(fut).poll(&mut cx)
}

/// While set, the injected hook spins the worker that dequeued the
/// marker op — simulating a wedged apply / runaway retry loop.
static STALLING: AtomicBool = AtomicBool::new(false);

const DEADLINE: Duration = Duration::from_millis(if cfg!(miri) { 400 } else { 150 });
const TRIP_LIMIT: Duration = Duration::from_secs(if cfg!(miri) { 120 } else { 20 });

#[test]
fn wedged_worker_trips_service_watchdog_with_parseable_dump() {
    let dump_path =
        std::env::temp_dir().join(format!("lf-async-watchdog-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&dump_path);

    lf_trace::enable();
    lf_trace::clear();
    lf_async::install_stall_hook(Box::new(|_lane| {
        while STALLING.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(5));
        }
    }));

    let service: AsyncList<u64, u64> = ServiceBuilder::new()
        .workers(1)
        .watchdog(DEADLINE)
        .watchdog_dump(&dump_path)
        .build(FrList::new());
    assert!(service.watchdog().is_some());

    // Warm up un-stalled so the marker op is the only wedged one.
    assert!(rt::block_on(service.insert(1, 10)).is_ok());

    STALLING.store(true, Ordering::SeqCst);
    let mut wedged = service.insert(2, 20);
    assert!(poll_once(&mut wedged).is_pending());

    let wd = service.watchdog().expect("watchdog enabled");
    let start = Instant::now();
    while wd.trips() == 0 {
        assert!(
            start.elapsed() < TRIP_LIMIT,
            "watchdog did not trip within {TRIP_LIMIT:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    let report = wd.last_report().expect("trip stored a report");
    assert_eq!(report.kind, lf_trace::watchdog::StallKind::Heartbeat);
    assert_eq!(report.label, "lane-0");
    assert!(report.stalled_for >= DEADLINE);
    assert!(report.dump_events > 0, "flight recorder dump was empty");

    // Un-wedge; the op must still complete (detection is observation,
    // not intervention).
    STALLING.store(false, Ordering::SeqCst);
    assert!(rt::block_on(wedged).is_ok());

    let text = std::fs::read_to_string(&dump_path).expect("dump file written");
    let dump = lf_trace::report::parse_dump(&text).expect("dump parses");
    assert_eq!(dump.reason, "watchdog");
    let rep = lf_trace::report::Report::build(&dump.events);
    rep.check_all().expect("per-op sequences well-formed");

    // The wedged op is reconstructible by id: dequeued, not completed.
    let stalled = rep
        .incomplete()
        .into_iter()
        .find(|h| h.phases().contains(&lf_trace::Phase::Dequeue))
        .expect("dump reconstructs the stalled op's phase history");
    assert_eq!(stalled.phases().first(), Some(&lf_trace::Phase::Enqueue));
    assert!(!stalled.completed());

    drop(service);
    lf_trace::disable();
    let _ = std::fs::remove_file(&dump_path);
}
