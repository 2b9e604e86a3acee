//! End-to-end service semantics: backpressure policies, graceful
//! shutdown, and waker delivery under concurrent load.
//!
//! Determinism trick: a `GatedMap` backend whose every operation
//! blocks on a gate. With `batch_max(1)` the single worker pops exactly one
//! request and parks inside it, so tests control precisely which
//! requests are in-flight versus still queued when shutdown (or a
//! policy decision) happens.

use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll};
use std::time::{Duration, Instant};

use lf_async::{
    AsyncBackend, BackpressurePolicy, Error, Request, Response, Service, ServiceBuilder,
};
use lf_core::{ConcurrentMap, FrList, MapHandle, SkipList};
use lf_map::BucketMap;
use lf_sched::rt;
use lf_shard::{ShardedMap, ShardedSkipList};

struct Gate {
    open: Mutex<bool>,
    cv: Condvar,
    waiting: AtomicUsize,
}

impl Gate {
    fn new() -> Self {
        Gate {
            open: Mutex::new(false),
            cv: Condvar::new(),
            waiting: AtomicUsize::new(0),
        }
    }

    fn pass(&self) {
        self.waiting.fetch_add(1, Ordering::SeqCst);
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.cv.wait(open).unwrap();
        }
        drop(open);
        self.waiting.fetch_sub(1, Ordering::SeqCst);
    }

    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }

    fn wait_for_waiter(&self) {
        while self.waiting.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
    }
}

/// An `FrList` whose operations block on a gate before executing.
struct GatedMap {
    inner: FrList<u64, u64>,
    gate: Arc<Gate>,
}

struct GatedHandle<'a> {
    inner: lf_core::ListHandle<'a, u64, u64>,
    gate: &'a Gate,
}

impl ConcurrentMap for GatedMap {
    type Key = u64;
    type Value = u64;
    type Handle<'a> = GatedHandle<'a>;

    const ORDERED: bool = true;

    fn handle(&self) -> GatedHandle<'_> {
        GatedHandle {
            inner: self.inner.handle(),
            gate: &self.gate,
        }
    }

    fn len(&self) -> usize {
        self.inner.len()
    }
}

impl MapHandle<u64, u64> for GatedHandle<'_> {
    fn insert(&self, key: u64, value: u64) -> Result<(), (u64, u64)> {
        self.gate.pass();
        self.inner.insert(key, value)
    }

    fn remove_with<T>(&self, key: &u64, f: impl FnOnce(&u64) -> T) -> Option<T> {
        self.gate.pass();
        self.inner.remove_with(key, f)
    }

    fn get_with<T>(&self, key: &u64, f: impl FnOnce(&u64) -> T) -> Option<T> {
        self.gate.pass();
        self.inner.get_with(key, f)
    }

    fn scan(&self, after: Option<&u64>, visit: &mut dyn FnMut(&u64, &u64) -> bool) {
        self.gate.pass();
        self.inner.scan(after, visit);
    }

    fn amortize_pins(&self, every: u32) {
        self.inner.amortize_pins(every);
    }

    fn quiesce(&self) {
        self.inner.quiesce();
    }

    fn flush_reclamation(&self) {
        self.inner.flush_reclamation();
    }
}

fn poll_once<F: Future + Unpin>(fut: &mut F) -> Poll<F::Output> {
    let mut cx = Context::from_waker(std::task::Waker::noop());
    Pin::new(fut).poll(&mut cx)
}

fn gated_service(policy: BackpressurePolicy, capacity: usize) -> (Service<GatedMap>, Arc<Gate>) {
    let gate = Arc::new(Gate::new());
    let backend = GatedMap {
        inner: FrList::new(),
        gate: Arc::clone(&gate),
    };
    let service = ServiceBuilder::new()
        .workers(1)
        .batch_max(1)
        .queue_capacity(capacity)
        .policy(policy)
        .build(backend);
    (service, gate)
}

#[test]
fn basic_ops_round_trip() {
    let service = ServiceBuilder::new()
        .workers(2)
        .build(FrList::<u64, u64>::new());
    rt::block_on(async {
        assert_eq!(service.insert(1, 10).await, Ok(Response::Inserted(true)));
        assert_eq!(service.insert(1, 11).await, Ok(Response::Inserted(false)));
        assert_eq!(service.get(1).await, Ok(Response::Value(Some(10))));
        assert_eq!(service.contains(2).await, Ok(Response::Found(false)));
        assert_eq!(service.op(Request::Len).await, Ok(Response::Len(1)));
        assert_eq!(service.remove(1).await, Ok(Response::Removed(Some(10))));
        assert_eq!(service.get(1).await, Ok(Response::Value(None)));
    });
    let m = service.metrics();
    assert_eq!(m.enqueued, 7);
    assert_eq!(m.completed, 7);
    service.shutdown();
}

#[test]
fn upsert_overwrites_in_one_request() {
    let service = ServiceBuilder::new()
        .workers(2)
        .build(FrList::<u64, u64>::new());
    rt::block_on(async {
        // Fresh key and overwrite both report Inserted(true): the
        // worker-side remove+insert loop won an insert round.
        assert_eq!(service.upsert(1, 10).await, Ok(Response::Inserted(true)));
        assert_eq!(service.get(1).await, Ok(Response::Value(Some(10))));
        assert_eq!(service.upsert(1, 11).await, Ok(Response::Inserted(true)));
        assert_eq!(service.get(1).await, Ok(Response::Value(Some(11))));
    });
    let m = service.metrics();
    // One ring request per upsert — it must not cost extra FIFO slots.
    assert_eq!(m.enqueued, 4);
    service.shutdown();
}

static KEY_CLONES: AtomicUsize = AtomicUsize::new(0);
static VALUE_CLONES: AtomicUsize = AtomicUsize::new(0);

/// A key that counts its clones.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct CountedKey(u64);

impl Clone for CountedKey {
    fn clone(&self) -> Self {
        KEY_CLONES.fetch_add(1, Ordering::SeqCst);
        CountedKey(self.0)
    }
}

/// A value that counts its clones.
#[derive(Debug, PartialEq)]
struct CountedValue(u64);

impl Clone for CountedValue {
    fn clone(&self) -> Self {
        VALUE_CLONES.fetch_add(1, Ordering::SeqCst);
        CountedValue(self.0)
    }
}

#[test]
fn upsert_over_a_present_key_clones_nothing() {
    fn check<B: AsyncBackend<Key = CountedKey, Value = CountedValue>>(service: Service<B>) {
        rt::block_on(async {
            let put = service.insert(CountedKey(1), CountedValue(10)).await;
            assert_eq!(put, Ok(Response::Inserted(true)));
            let clones = || {
                (
                    KEY_CLONES.load(Ordering::SeqCst),
                    VALUE_CLONES.load(Ordering::SeqCst),
                )
            };
            let before = clones();
            // The first insert round is refused and hands the pair
            // back; the remove discards the old value in place; the
            // second round inserts the same pair.
            let up = service.upsert(CountedKey(1), CountedValue(11)).await;
            assert_eq!(up, Ok(Response::Inserted(true)));
            assert_eq!(clones(), before, "an upsert cloned its key or value");
            let got = service.get(CountedKey(1)).await;
            assert_eq!(got, Ok(Response::Value(Some(CountedValue(11)))));
        });
        service.shutdown();
    }
    check(ServiceBuilder::new().workers(2).build(FrList::new()));
    check(ServiceBuilder::new().workers(2).build(SkipList::new()));
    check(
        ServiceBuilder::new()
            .workers(2)
            .build(ShardedSkipList::new(4)),
    );
    check(ServiceBuilder::new().workers(2).build(BucketMap::new(8)));
    check(
        ServiceBuilder::new()
            .workers(2)
            .build(ShardedMap::new(2, 8)),
    );
}

#[test]
fn batch_resolves_in_input_order_with_one_cell_per_lane() {
    fn check<B: AsyncBackend<Key = u64, Value = u64>>(service: Service<B>, lanes_touched: usize) {
        // Interleaved writes and reads on a few keys: every read must
        // see the write just before it in the batch.
        let mut reqs = Vec::new();
        let mut want = Vec::new();
        for i in 0..60u64 {
            let k = i % 6;
            reqs.push(Request::Upsert(k, i));
            want.push(Ok(Response::Inserted(true)));
            reqs.push(Request::Get(k));
            want.push(Ok(Response::Value(Some(i))));
        }
        reqs.push(Request::Remove(0));
        want.push(Ok(Response::Removed(Some(54))));
        reqs.push(Request::Contains(0));
        want.push(Ok(Response::Found(false)));
        let n = reqs.len() as u64;
        assert_eq!(rt::block_on(service.batch(reqs)), want);
        assert_eq!(rt::block_on(service.batch(Vec::new())), vec![]);
        service.shutdown();
        let m = service.metrics();
        // Requests are counted one by one, ring slots one per lane.
        assert_eq!((m.enqueued, m.completed), (n, n));
        assert_eq!(m.queue_depth.count(), lanes_touched as u64);
        assert_eq!(m.enqueue_to_complete_ns.count(), n);
    }
    // Without lane affinity the whole batch is one cell, whatever the
    // lane count.
    check(ServiceBuilder::new().workers(4).build(FrList::new()), 1);
    check(ServiceBuilder::new().workers(4).build(SkipList::new()), 1);
    // With affinity it splits by partition, each lane in input order.
    let hash = ServiceBuilder::new()
        .workers(4)
        .build(BucketMap::<u64, u64>::new(64));
    let lanes: std::collections::BTreeSet<usize> = (0..6u64)
        .map(|k| hash.backend().bucket_of(&k) % 4)
        .collect();
    check(hash, lanes.len());
    let sharded = ServiceBuilder::new()
        .workers(4)
        .build(ShardedSkipList::<u64, u64>::new(8));
    let lanes: std::collections::BTreeSet<usize> = (0..6u64)
        .map(|k| sharded.backend().shard_of(&k) % 4)
        .collect();
    check(sharded, lanes.len());
}

/// Several threads submit batches of 5 into a 2-slot ring whose worker
/// is held at a gate, so cells must be refused. A refused cell refuses
/// all five of its requests, and the counters count every one of them.
fn refusals_are_counted_per_request(policy: BackpressurePolicy) {
    const THREADS: usize = 4;
    const BATCHES: usize = 6;
    const BATCH: usize = 5;
    let (service, gate) = gated_service(policy, 2);
    let tallies = std::thread::scope(|s| {
        let submitters: Vec<_> = (0..THREADS as u64)
            .map(|t| {
                let service = &service;
                s.spawn(move || {
                    let mut tally = [0u64; 3]; // ok, shed, rejected
                    for b in 0..BATCHES as u64 {
                        let base = (t * 100 + b) * 10;
                        let reqs = (0..BATCH as u64)
                            .map(|i| Request::Insert(base + i, i))
                            .collect();
                        let outs = rt::block_on(service.batch(reqs));
                        assert_eq!(outs.len(), BATCH);
                        // One lane, one cell: all five share one fate.
                        assert!(outs.iter().all(|o| o == &outs[0]), "{outs:?}");
                        let slot = match outs[0] {
                            Ok(Response::Inserted(true)) => 0,
                            Err(Error::Shed) => 1,
                            Err(Error::Rejected) => 2,
                            ref other => panic!("unexpected outcome {other:?}"),
                        };
                        tally[slot] += BATCH as u64;
                    }
                    tally
                })
            })
            .collect();
        // Hold the worker until the ring has overflowed at least once:
        // one cell in the worker and two queued leave no room for the
        // fourth thread's.
        gate.wait_for_waiter();
        let m = || service.metrics();
        while m().shed + m().rejected == 0 {
            std::thread::yield_now();
        }
        gate.open();
        submitters
            .into_iter()
            .map(|h| h.join().unwrap())
            .fold([0u64; 3], |a, t| [a[0] + t[0], a[1] + t[1], a[2] + t[2]])
    });
    service.shutdown();
    let m = service.metrics();
    let [ok, shed, rejected] = tallies;
    assert_eq!(ok + shed + rejected, (THREADS * BATCHES * BATCH) as u64);
    assert_eq!((m.completed, m.shed, m.rejected), (ok, shed, rejected));
    assert_eq!(m.enqueued, m.completed + m.shed + m.shutdown_dropped);
    assert_eq!(m.shutdown_dropped, 0);
    assert_eq!(service.len() as u64, ok);
    match policy {
        BackpressurePolicy::Shed => assert!(shed > 0 && rejected == 0),
        BackpressurePolicy::Reject => assert!(rejected > 0 && shed == 0),
        BackpressurePolicy::Block => unreachable!(),
    }
}

#[test]
fn shed_batches_are_counted_per_request() {
    refusals_are_counted_per_request(BackpressurePolicy::Shed);
}

#[test]
fn rejected_batches_are_counted_per_request() {
    refusals_are_counted_per_request(BackpressurePolicy::Reject);
}

#[test]
fn shutdown_drains_a_queued_batch_per_request() {
    let (service, gate) = gated_service(BackpressurePolicy::Block, 64);
    let service = Arc::new(service);
    let mut in_flight = service.insert(1, 1);
    assert!(poll_once(&mut in_flight).is_pending());
    gate.wait_for_waiter();
    let mut queued = service.batch((10..15).map(|k| Request::Insert(k, k)).collect());
    assert!(poll_once(&mut queued).is_pending());
    let s2 = Arc::clone(&service);
    let shut = std::thread::spawn(move || s2.shutdown());
    while poll_once(&mut service.get(1)) != Poll::Ready(Err(Error::Shutdown)) {
        std::thread::yield_now();
    }
    gate.open();
    shut.join().unwrap();
    assert_eq!(rt::block_on(in_flight), Ok(Response::Inserted(true)));
    assert_eq!(rt::block_on(queued), vec![Err(Error::Shutdown); 5]);
    let m = service.metrics();
    // Probes that won the push before the close were drained too.
    assert_eq!(m.completed, 1);
    assert!(m.shutdown_dropped >= 5, "{}", m.shutdown_dropped);
    assert_eq!(m.enqueued, m.completed + m.shutdown_dropped);
}

#[test]
fn skiplist_backend_round_trips() {
    let service = ServiceBuilder::new()
        .workers(2)
        .build(SkipList::<u64, u64>::new());
    rt::block_on(async {
        for k in 0..50u64 {
            assert_eq!(service.insert(k, k * 2).await, Ok(Response::Inserted(true)));
        }
        for k in 0..50u64 {
            assert_eq!(service.get(k).await, Ok(Response::Value(Some(k * 2))));
        }
    });
    assert_eq!(service.len(), 50);
    service.shutdown();
}

/// Page through `service` at each page size and from cursors that are
/// present, removed, below the minimum and above the maximum; every
/// page must equal the `BTreeMap`'s.
fn scan_matches_oracle<B: AsyncBackend<Key = u64, Value = u64>>(service: &Service<B>) {
    assert!(service.supports_scan());
    assert_eq!(rt::block_on(service.scan(None, 10)), Ok(vec![]));
    let mut oracle = std::collections::BTreeMap::new();
    rt::block_on(async {
        for i in 0..400u64 {
            let k = 10 + i * 37 % 401;
            assert_eq!(service.insert(k, i).await, Ok(Response::Inserted(true)));
            oracle.insert(k, i);
        }
        for k in (10..411u64).step_by(3) {
            assert_eq!(
                service.remove(k).await,
                Ok(Response::Removed(oracle.remove(&k)))
            );
        }
    });
    for limit in [1usize, 7, 1_000] {
        let mut after = None;
        let mut seen = Vec::new();
        loop {
            let page = rt::block_on(service.scan(after, limit)).unwrap();
            assert!(page.len() <= limit);
            after = page.last().map(|(k, _)| *k);
            let full = page.len() == limit;
            seen.extend(page);
            if !full {
                break;
            }
        }
        assert_eq!(
            seen,
            oracle.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>()
        );
    }
    // 13 was removed, 14 is live, 0 and 5_000 lie beyond both ends.
    for cursor in [0u64, 13, 14, 5_000] {
        let want: Vec<_> = oracle
            .range(cursor + 1..)
            .take(5)
            .map(|(k, v)| (*k, *v))
            .collect();
        assert_eq!(rt::block_on(service.scan(Some(cursor), 5)), Ok(want));
    }
    assert_eq!(rt::block_on(service.scan(None, 0)), Ok(vec![]));
}

#[test]
fn scan_equals_a_btreemap_oracle_on_every_ordered_backend() {
    scan_matches_oracle(
        &ServiceBuilder::new()
            .workers(2)
            .build(FrList::<u64, u64>::new()),
    );
    scan_matches_oracle(
        &ServiceBuilder::new()
            .workers(2)
            .build(SkipList::<u64, u64>::new()),
    );
    scan_matches_oracle(
        &ServiceBuilder::new()
            .workers(2)
            .build(ShardedSkipList::<u64, u64>::new(8)),
    );
}

/// A scan visitor that tallies its calls and flags its own drop.
#[derive(Default)]
struct VisitLog {
    pairs: AtomicUsize,
    closes: AtomicUsize,
    dropped: AtomicUsize,
}

struct DropFlag(Arc<VisitLog>);

impl Drop for DropFlag {
    fn drop(&mut self) {
        self.0.dropped.fetch_add(1, Ordering::SeqCst);
    }
}

/// A visitor that accepts `accept` pairs, then declines.
fn logging_visitor(
    log: &Arc<VisitLog>,
    accept: usize,
) -> impl FnMut(Option<(&u64, &u64)>) -> bool + Send + 'static {
    let flag = DropFlag(Arc::clone(log));
    move |pair| match pair {
        Some(_) => flag.0.pairs.fetch_add(1, Ordering::SeqCst) + 1 < accept,
        None => {
            flag.0.closes.fetch_add(1, Ordering::SeqCst);
            true
        }
    }
}

#[test]
fn scan_visitor_is_closed_exactly_once() {
    let service = ServiceBuilder::new()
        .workers(1)
        .build(ShardedSkipList::<u64, u64>::new(4));
    // (limit, pairs the visitor accepts, pairs it must be shown)
    let cases = [
        (0usize, 9usize, 0usize),
        (5, 9, 5),
        (50, 9, 9),
        (50, 99, 20),
    ];
    for populated in [false, true] {
        for (limit, accept, shown) in cases {
            let shown = if populated { shown } else { 0 };
            let log = Arc::new(VisitLog::default());
            let fut = service.scan_with(None, limit, logging_visitor(&log, accept));
            assert_eq!(rt::block_on(fut), Ok(Response::Scanned(shown)));
            assert_eq!(log.pairs.load(Ordering::SeqCst), shown);
            assert_eq!(log.closes.load(Ordering::SeqCst), 1);
            assert_eq!(log.dropped.load(Ordering::SeqCst), 1);
        }
        rt::block_on(async {
            for k in 0..20u64 {
                let _ = service.insert(k, k).await;
            }
        });
    }
    service.shutdown();
}

#[test]
fn hash_tiers_resolve_scans_to_an_empty_page() {
    fn check<B: AsyncBackend<Key = u64, Value = u64>>(service: Service<B>) {
        assert!(!service.supports_scan());
        rt::block_on(async {
            for k in 0..20u64 {
                assert_eq!(service.insert(k, k).await, Ok(Response::Inserted(true)));
            }
        });
        assert_eq!(rt::block_on(service.scan(None, 10)), Ok(vec![]));
        let log = Arc::new(VisitLog::default());
        let fut = service.scan_with(Some(3), 10, logging_visitor(&log, 10));
        assert_eq!(rt::block_on(fut), Ok(Response::Scanned(0)));
        assert_eq!(log.pairs.load(Ordering::SeqCst), 0);
        assert_eq!(log.closes.load(Ordering::SeqCst), 1);
    }
    check(
        ServiceBuilder::new()
            .workers(2)
            .build(BucketMap::<u64, u64>::new(8)),
    );
    check(
        ServiceBuilder::new()
            .workers(2)
            .build(ShardedMap::<u64, u64>::new(2, 8)),
    );
}

#[test]
fn unexecuted_scans_drop_their_visitor_uncalled() {
    let uncalled = |log: &VisitLog| {
        assert_eq!(log.pairs.load(Ordering::SeqCst), 0);
        assert_eq!(log.closes.load(Ordering::SeqCst), 0);
        assert_eq!(log.dropped.load(Ordering::SeqCst), 1);
    };

    // Shed: the scan is the oldest queued request when the lane overflows.
    let (service, gate) = gated_service(BackpressurePolicy::Shed, 2);
    let mut in_flight = service.insert(1, 1);
    assert!(poll_once(&mut in_flight).is_pending());
    gate.wait_for_waiter();
    let log = Arc::new(VisitLog::default());
    let mut scan = service.scan_with(None, 10, logging_visitor(&log, 10));
    let mut newer = service.insert(2, 1);
    let mut freshest = service.insert(3, 1);
    assert!(poll_once(&mut scan).is_pending());
    assert!(poll_once(&mut newer).is_pending());
    assert!(poll_once(&mut freshest).is_pending());
    assert_eq!(rt::block_on(scan), Err(Error::Shed));
    uncalled(&log);
    gate.open();
    service.shutdown();

    // Shutdown: the scan is still queued when the rings close.
    let (service, gate) = gated_service(BackpressurePolicy::Block, 64);
    let service = Arc::new(service);
    let mut in_flight = service.insert(1, 1);
    assert!(poll_once(&mut in_flight).is_pending());
    gate.wait_for_waiter();
    let log = Arc::new(VisitLog::default());
    let mut scan = service.scan(None, 10);
    let mut scan_with = service.scan_with(None, 10, logging_visitor(&log, 10));
    assert!(poll_once(&mut scan).is_pending());
    assert!(poll_once(&mut scan_with).is_pending());
    let s2 = Arc::clone(&service);
    let shut = std::thread::spawn(move || s2.shutdown());
    while poll_once(&mut service.get(1)) != Poll::Ready(Err(Error::Shutdown)) {
        std::thread::yield_now();
    }
    gate.open();
    shut.join().unwrap();
    assert_eq!(rt::block_on(scan), Err(Error::Shutdown));
    assert_eq!(rt::block_on(scan_with), Err(Error::Shutdown));
    uncalled(&log);
}

#[test]
fn shutdown_finishes_in_flight_and_fails_queued() {
    let (service, gate) = gated_service(BackpressurePolicy::Block, 64);
    let service = Arc::new(service);

    // op1 is popped by the worker, which parks inside apply().
    let mut op1 = service.insert(1, 100);
    assert!(poll_once(&mut op1).is_pending());
    gate.wait_for_waiter();

    // These stay queued behind the parked worker (batch_max = 1).
    let mut queued = Vec::new();
    for k in 2..5u64 {
        let mut f = service.insert(k, 100);
        assert!(poll_once(&mut f).is_pending());
        queued.push(f);
    }

    // Shut down from another thread (it blocks joining the worker).
    let s2 = Arc::clone(&service);
    let shut = std::thread::spawn(move || s2.shutdown());

    // Once the rings are closed, a fresh submission fails fast without
    // enqueueing. Submissions that still won the push race are just
    // more still-queued ops; track them with the rest.
    loop {
        let mut probe = service.insert(999, 1);
        match poll_once(&mut probe) {
            Poll::Ready(r) => {
                assert_eq!(r, Err(Error::Shutdown));
                break;
            }
            Poll::Pending => queued.push(probe),
        }
        std::thread::yield_now();
    }

    // Release the worker: it finishes op1 (its in-flight batch), then
    // resolves everything still queued with Shutdown.
    gate.open();
    shut.join().unwrap();

    assert_eq!(rt::block_on(op1), Ok(Response::Inserted(true)));
    for f in queued {
        assert_eq!(rt::block_on(f), Err(Error::Shutdown));
    }
    let m = service.metrics();
    assert_eq!(m.completed, 1);
    assert_eq!(m.enqueued, m.completed + m.shutdown_dropped);
    // The executed insert landed; the drained ones did not.
    assert_eq!(service.len(), 1);
}

#[test]
fn submissions_after_shutdown_fail() {
    let service = ServiceBuilder::new()
        .workers(1)
        .build(FrList::<u64, u64>::new());
    service.shutdown();
    assert_eq!(rt::block_on(service.get(1)), Err(Error::Shutdown));
    assert_eq!(service.metrics().enqueued, 0);
}

#[test]
fn reject_policy_fails_fast_when_full() {
    let (service, gate) = gated_service(BackpressurePolicy::Reject, 2);

    let mut in_flight = service.insert(1, 1);
    assert!(poll_once(&mut in_flight).is_pending());
    gate.wait_for_waiter();

    // Fill the lane (capacity 2), then overflow it.
    let mut q1 = service.insert(2, 1);
    let mut q2 = service.insert(3, 1);
    assert!(poll_once(&mut q1).is_pending());
    assert!(poll_once(&mut q2).is_pending());
    let mut over = service.insert(4, 1);
    assert_eq!(poll_once(&mut over), Poll::Ready(Err(Error::Rejected)));
    assert_eq!(service.metrics().rejected, 1);

    gate.open();
    assert_eq!(rt::block_on(in_flight), Ok(Response::Inserted(true)));
    assert_eq!(rt::block_on(q1), Ok(Response::Inserted(true)));
    assert_eq!(rt::block_on(q2), Ok(Response::Inserted(true)));
    service.shutdown();
}

#[test]
fn shed_policy_evicts_oldest_queued() {
    let (service, gate) = gated_service(BackpressurePolicy::Shed, 2);

    let mut in_flight = service.insert(1, 1);
    assert!(poll_once(&mut in_flight).is_pending());
    gate.wait_for_waiter();

    let mut oldest = service.insert(2, 1);
    let mut newer = service.insert(3, 1);
    assert!(poll_once(&mut oldest).is_pending());
    assert!(poll_once(&mut newer).is_pending());

    // Overflow: the oldest queued request (key 2) is shed to make room.
    let mut freshest = service.insert(4, 1);
    assert!(poll_once(&mut freshest).is_pending());

    assert_eq!(rt::block_on(oldest), Err(Error::Shed));
    assert_eq!(service.metrics().shed, 1);

    gate.open();
    assert_eq!(rt::block_on(in_flight), Ok(Response::Inserted(true)));
    assert_eq!(rt::block_on(newer), Ok(Response::Inserted(true)));
    assert_eq!(rt::block_on(freshest), Ok(Response::Inserted(true)));
    service.shutdown();
    assert_eq!(service.len(), 3); // keys 1, 3, 4 — never 2
}

#[test]
fn block_policy_suspends_and_resumes_producers() {
    let (service, gate) = gated_service(BackpressurePolicy::Block, 2);
    let service = Arc::new(service);

    let mut in_flight = service.insert(0, 0);
    assert!(poll_once(&mut in_flight).is_pending());
    gate.wait_for_waiter();

    // More submissions than lane capacity: the surplus must suspend,
    // then resume as the worker frees space — nobody is lost.
    type OpOut = Result<Response<u64>, Error>;
    let s2 = Arc::clone(&service);
    let driver = std::thread::spawn(move || {
        let futs: Vec<Pin<Box<dyn Future<Output = OpOut> + Send>>> = (1..20u64)
            .map(|k| -> Pin<Box<dyn Future<Output = OpOut> + Send>> { Box::pin(s2.insert(k, k)) })
            .collect();
        rt::run_all(futs)
    });

    gate.open();
    let results = driver.join().unwrap();
    assert!(results
        .iter()
        .all(|r| matches!(r, Ok(Response::Inserted(true)))));
    assert_eq!(rt::block_on(in_flight), Ok(Response::Inserted(true)));
    assert_eq!(service.len(), 20);
    let m = service.metrics();
    assert_eq!(m.enqueued, 20);
    assert_eq!(m.completed, 20);
    assert_eq!(m.rejected + m.shed + m.shutdown_dropped, 0);
    service.shutdown();
}

/// What a batch of `u64` requests resolves to.
type Outcomes = Vec<Result<Response<u64>, Error>>;

/// Point requests of one key and their expected outcomes, in order.
fn point_batch(k: u64) -> (Vec<Request<u64, u64>>, Outcomes) {
    (
        vec![
            Request::Insert(k, 1),
            Request::Upsert(k, 2),
            Request::Get(k),
            Request::Contains(k),
            Request::Remove(k),
            Request::Get(k),
        ],
        vec![
            Ok(Response::Inserted(true)),
            Ok(Response::Inserted(true)),
            Ok(Response::Value(Some(2))),
            Ok(Response::Found(true)),
            Ok(Response::Removed(Some(2))),
            Ok(Response::Value(None)),
        ],
    )
}

#[test]
fn batch_on_runs_inline_on_an_idle_service() {
    let service = ServiceBuilder::new()
        .workers(1)
        .build(FrList::<u64, u64>::new());
    let h = service.handle();
    let mut n = 0;
    for k in 0..10 {
        let (reqs, want) = point_batch(k);
        n += reqs.len() as u64;
        let mut fut = service.batch_on(&h, reqs);
        // The outcomes are in the future before its first poll.
        assert_eq!(poll_once(&mut fut), Poll::Ready(want));
    }
    let m = service.metrics();
    assert_eq!((m.inline, m.enqueued, m.completed), (n, n, n));
    assert_eq!(m.queue_depth.count(), 0, "an inline leg took a ring slot");
    assert_eq!(m.batch_size.count(), 10);
    assert_eq!(m.enqueue_to_complete_ns.count(), n);
    drop(h);
    service.shutdown();
}

#[test]
fn batch_on_queues_while_the_worker_holds_the_token() {
    let (service, gate) = gated_service(BackpressurePolicy::Block, 64);
    // The worker pops this insert and parks inside it, token in hand.
    let mut in_flight = service.insert(1, 10);
    assert!(poll_once(&mut in_flight).is_pending());
    gate.wait_for_waiter();
    // Run inline, this leg would block at the gate on this thread; it
    // must queue behind the insert instead.
    let h = service.handle();
    let mut fut = service.batch_on(
        &h,
        vec![Request::Get(1), Request::Insert(2, 20), Request::Get(2)],
    );
    assert!(poll_once(&mut fut).is_pending());
    assert_eq!(service.metrics().inline, 0);
    gate.open();
    assert_eq!(rt::block_on(in_flight), Ok(Response::Inserted(true)));
    assert_eq!(
        rt::block_on(fut),
        vec![
            Ok(Response::Value(Some(10))),
            Ok(Response::Inserted(true)),
            Ok(Response::Value(Some(20))),
        ]
    );
    let m = service.metrics();
    assert_eq!((m.inline, m.enqueued, m.completed), (0, 4, 4));
    assert_eq!(m.queue_depth.count(), 2);
    drop(h);
    service.shutdown();
}

#[test]
fn batch_on_queues_a_leg_holding_a_scan() {
    let service = ServiceBuilder::new()
        .workers(1)
        .build(FrList::<u64, u64>::new());
    let h = service.handle();
    let log = Arc::new(VisitLog::default());
    let reqs = vec![
        Request::Insert(1, 1),
        Request::Scan(None, 10, Box::new(logging_visitor(&log, 10))),
    ];
    assert_eq!(
        rt::block_on(service.batch_on(&h, reqs)),
        vec![Ok(Response::Inserted(true)), Ok(Response::Scanned(1))]
    );
    assert_eq!(log.closes.load(Ordering::SeqCst), 1);
    let m = service.metrics();
    assert_eq!((m.inline, m.enqueued), (0, 2));
    assert_eq!(m.queue_depth.count(), 1);
    // The same lane, idle again, takes a point-only leg inline.
    let (reqs, want) = point_batch(2);
    assert_eq!(rt::block_on(service.batch_on(&h, reqs)), want);
    assert_eq!(service.metrics().inline, want.len() as u64);
    drop(h);
    service.shutdown();
}

/// Poll `fut` until it resolves; fail if that takes longer than 5 s.
fn resolve_soon<F: Future + Unpin>(mut fut: F) -> F::Output {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if let Poll::Ready(out) = poll_once(&mut fut) {
            return out;
        }
        assert!(Instant::now() < deadline, "the lane never ran the request");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn batch_on_hands_the_token_back_when_a_visitor_panics() {
    let service = ServiceBuilder::new()
        .workers(1)
        .build(FrList::<u64, u64>::new());
    let h = service.handle();
    let reqs = vec![
        Request::Insert(1, 10),
        Request::GetWith(1, Box::new(|_| panic!("visitor panics"))),
    ];
    // The idle lane runs the leg inline, so the panic unwinds out of
    // `batch_on` itself, through the executor token's holder.
    let unwound = catch_unwind(AssertUnwindSafe(|| service.batch_on(&h, reqs)));
    assert!(unwound.is_err());
    // The lane is not wedged: the next leg runs inline again, and a
    // queued future is drained by the worker.
    let (reqs, want) = point_batch(2);
    assert_eq!(resolve_soon(service.batch_on(&h, reqs)), want);
    assert_eq!(resolve_soon(service.get(1)), Ok(Response::Value(Some(10))));
    drop(h);
    service.shutdown();
}

/// `batch_max` counts requests, and nothing bounds it but `usize`: the
/// largest one must still leave the worker draining its lane.
#[test]
fn the_largest_batch_max_still_serves_queued_requests() {
    let service = ServiceBuilder::new()
        .workers(1)
        .batch_max(usize::MAX)
        .build(FrList::<u64, u64>::new());
    assert_eq!(
        resolve_soon(service.insert(1, 10)),
        Ok(Response::Inserted(true))
    );
    assert_eq!(resolve_soon(service.get(1)), Ok(Response::Value(Some(10))));
    service.shutdown();
}

#[test]
fn batch_on_after_shutdown_fails_without_touching_the_map() {
    // The gate never opens: a request that reached the map would block
    // this thread for good.
    let (service, _gate) = gated_service(BackpressurePolicy::Block, 64);
    service.shutdown();
    let h = service.handle();
    let outs = rt::block_on(service.batch_on(&h, vec![Request::Insert(1, 1), Request::Get(1)]));
    assert_eq!(outs, vec![Err(Error::Shutdown); 2]);
    let m = service.metrics();
    assert_eq!((m.enqueued, m.inline, m.completed), (0, 0, 0));
    assert_eq!(service.len(), 0);
}

/// Four threads call `batch_on` on their own handles beside two threads
/// submitting futures, all writing one hot key through two lanes. Each
/// batch reads its own key's last write, overwrites it and then writes
/// and reads the hot key: every batch must see its previous write to
/// its own key (its writes take effect in its order) and its own write
/// to the hot key (nothing runs between two requests of one leg).
#[test]
fn batch_on_beside_futures_keeps_each_submitters_order() {
    const ROUNDS: u64 = if cfg!(miri) { 10 } else { 300 };
    const HOT: u64 = 7;
    let service = ServiceBuilder::new()
        .workers(2)
        .queue_capacity(8)
        .build(BucketMap::<u64, u64>::new(16));
    let round = |t: u64, i: u64| {
        let own = 1_000 + t;
        let mark = t << 32 | i;
        let reqs = vec![
            Request::Get(own),
            Request::Upsert(own, i),
            Request::Upsert(HOT, mark),
            Request::Get(HOT),
        ];
        let want = vec![
            Ok(Response::Value(i.checked_sub(1))),
            Ok(Response::Inserted(true)),
            Ok(Response::Inserted(true)),
            Ok(Response::Value(Some(mark))),
        ];
        (reqs, want)
    };
    std::thread::scope(|s| {
        for t in 0..6u64 {
            let (service, round) = (&service, &round);
            s.spawn(move || {
                let h = (t < 4).then(|| service.handle());
                for i in 0..ROUNDS {
                    let (reqs, want) = round(t, i);
                    let outs = match &h {
                        Some(h) => rt::block_on(service.batch_on(h, reqs)),
                        None => rt::block_on(service.batch(reqs)),
                    };
                    assert_eq!(outs, want, "submitter {t}, round {i}");
                }
            });
        }
    });
    service.shutdown();
    let m = service.metrics();
    let total = 6 * ROUNDS * 4;
    assert_eq!(m.enqueued, total);
    assert_eq!(m.enqueued, m.completed + m.shed + m.shutdown_dropped);
    assert_eq!(m.completed, total);
    assert!(
        0 < m.inline && m.inline <= m.enqueued,
        "{} inline",
        m.inline
    );
    assert_eq!(m.enqueue_to_complete_ns.count(), total);
}

/// A leg that finds another caller's inline leg holding the token waits
/// only about one worker hand-off for it, then queues: a holder stuck
/// for 50 ms does not stall a second caller with it, and the worker
/// serves the queued leg once the holder hands the lane back.
#[test]
fn batch_on_queues_behind_an_inline_leg_that_outlasts_the_wait() {
    const HOLD: Duration = Duration::from_millis(50);
    let service = ServiceBuilder::new()
        .workers(1)
        .build(FrList::<u64, u64>::new());
    let gate = Arc::new(Gate::new());
    std::thread::scope(|s| {
        let visit_gate = Arc::clone(&gate);
        let holder = s.spawn(|| {
            let h = service.handle();
            let reqs = vec![
                Request::Insert(1, 10),
                Request::GetWith(1, Box::new(move |_| visit_gate.pass())),
            ];
            // The idle lane runs the leg here; its visitor parks at the
            // gate with the token in hand.
            let mut fut = service.batch_on(&h, reqs);
            poll_once(&mut fut)
        });
        gate.wait_for_waiter();
        let held_since = Instant::now();
        // A `batch_on` that waited for the token without bound would
        // block this thread until the gate opens: open it from here
        // after a while, so such a wait fails the test instead of
        // hanging it.
        let (opened, fallback) = std::sync::mpsc::channel::<()>();
        let fallback_gate = Arc::clone(&gate);
        s.spawn(move || {
            if fallback.recv_timeout(Duration::from_secs(2)).is_err() {
                fallback_gate.open();
            }
        });
        let h = service.handle();
        let mut fut = service.batch_on(
            &h,
            vec![Request::Insert(2, 20), Request::Get(2), Request::Get(1)],
        );
        assert!(
            held_since.elapsed() < HOLD,
            "batch_on waited out the holder"
        );
        assert!(poll_once(&mut fut).is_pending());
        // The worker cannot take the lane from the holder either.
        std::thread::sleep(HOLD.saturating_sub(held_since.elapsed()));
        assert!(poll_once(&mut fut).is_pending());
        assert_eq!(service.metrics().inline, 0);
        gate.open();
        let _ = opened.send(());
        assert_eq!(
            holder.join().unwrap(),
            Poll::Ready(vec![
                Ok(Response::Inserted(true)),
                Ok(Response::Visited(true))
            ])
        );
        assert_eq!(
            resolve_soon(fut),
            vec![
                Ok(Response::Inserted(true)),
                Ok(Response::Value(Some(20))),
                Ok(Response::Value(Some(10))),
            ]
        );
        drop(h);
    });
    let m = service.metrics();
    assert_eq!((m.inline, m.enqueued, m.completed), (2, 5, 5));
    assert_eq!(m.queue_depth.count(), 1);
    service.shutdown();
}

/// Run `pipelines` random point pipelines through `batch_on` on stripe
/// `t` of two (keys `k` with `k % 2 == t`), checking every outcome
/// against a model of the stripe; returns the requests sent.
fn run_stripe(service: &Service<SkipList<u64, u64>>, t: u64, pipelines: u64) -> u64 {
    const KEYS: u64 = 32;
    let h = service.handle();
    let mut model = std::collections::BTreeMap::new();
    let mut rng = 0x9E37_79B9_7F4A_7C15u64 + t;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let mut sent = 0;
    for i in 0..pipelines {
        let mut reqs = Vec::new();
        let mut want = Vec::new();
        for _ in 0..1 + next() % 8 {
            let r = next();
            let k = (r >> 8) % KEYS * 2 + t;
            let (req, out) = match r % 5 {
                0 => {
                    let fresh = !model.contains_key(&k);
                    model.entry(k).or_insert(i);
                    (Request::Insert(k, i), Response::Inserted(fresh))
                }
                1 => {
                    model.insert(k, i);
                    (Request::Upsert(k, i), Response::Inserted(true))
                }
                2 => (Request::Get(k), Response::Value(model.get(&k).copied())),
                3 => (
                    Request::Contains(k),
                    Response::Found(model.contains_key(&k)),
                ),
                _ => (Request::Remove(k), Response::Removed(model.remove(&k))),
            };
            reqs.push(req);
            want.push(Ok(out));
        }
        sent += reqs.len() as u64;
        let outs = rt::block_on(service.batch_on(&h, reqs));
        assert_eq!(outs, want, "stripe {t}, pipeline {i}");
    }
    sent
}

/// Two threads, each on its own handle and its own stripe of keys, run
/// point pipelines through `batch_on` on one lane, so their legs keep
/// meeting on its token: a leg that waits the other out runs inline,
/// one that gives up queues. Every outcome must match the thread's own
/// model of its stripe, and every request must complete.
#[test]
fn colliding_batch_on_callers_match_their_models() {
    const PIPELINES: u64 = 10_000;
    let service = ServiceBuilder::new()
        .workers(1)
        .build(SkipList::<u64, u64>::new());
    let sent: u64 = std::thread::scope(|s| {
        let service = &service;
        let stripes: Vec<_> = (0..2)
            .map(|t| s.spawn(move || run_stripe(service, t, PIPELINES)))
            .collect();
        stripes.into_iter().map(|t| t.join().unwrap()).sum()
    });
    service.shutdown();
    let m = service.metrics();
    assert_eq!(m.enqueued, sent);
    assert_eq!(m.completed, m.enqueued);
    assert!(
        0 < m.inline && m.inline <= m.enqueued,
        "{} inline",
        m.inline
    );
}

#[test]
fn concurrent_drivers_no_lost_wakers() {
    let drivers = 4;
    let tasks_per_driver = if cfg!(miri) { 8 } else { 200 };
    let ops_per_task = if cfg!(miri) { 2 } else { 5 };
    let service = Arc::new(
        ServiceBuilder::new()
            .workers(2)
            .queue_capacity(64)
            .batch_max(16)
            .policy(BackpressurePolicy::Block)
            .build(SkipList::<u64, u64>::new()),
    );
    let done = Arc::new(AtomicUsize::new(0));
    let threads: Vec<_> = (0..drivers)
        .map(|d| {
            let service = Arc::clone(&service);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let futs: Vec<Pin<Box<dyn Future<Output = ()> + Send>>> = (0..tasks_per_driver)
                    .map(|t| {
                        let service = Arc::clone(&service);
                        let done = Arc::clone(&done);
                        Box::pin(async move {
                            let base = (d * tasks_per_driver + t) as u64 * 100;
                            for i in 0..ops_per_task as u64 {
                                let k = base + i;
                                assert_eq!(
                                    service.insert(k, k).await,
                                    Ok(Response::Inserted(true))
                                );
                                assert_eq!(service.get(k).await, Ok(Response::Value(Some(k))));
                                done.fetch_add(2, Ordering::Relaxed);
                            }
                        }) as Pin<Box<dyn Future<Output = ()> + Send>>
                    })
                    .collect();
                rt::run_all(futs);
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let total = drivers * tasks_per_driver * ops_per_task * 2;
    assert_eq!(done.load(Ordering::Relaxed), total);
    let m = service.metrics();
    assert_eq!(m.completed, total as u64);
    assert_eq!(m.enqueue_to_complete_ns.count(), total as u64);
    assert!(m.batch_size.count() > 0);
    service.shutdown();
}
