//! The service: sharded submission lanes, per-lane batch workers,
//! backpressure, and graceful shutdown.
//!
//! One lane per worker. A submitting task picks a lane (the backend's
//! partition affinity, else round robin), parks an [`OpCell`] in the
//! lane's ring, and suspends on the cell. A cell carries one request
//! ([`Service::op`]) or a batch's worth for that lane
//! ([`Service::batch`]); either way it takes one ring slot. The lane's
//! worker drains cells until it holds `batch_max` requests, executes
//! them back to back through its own (thread-local, non-`Send`) backend
//! handle with the epoch announcement amortized across the whole drain,
//! and completes and wakes each cell once. Idle workers quiesce their
//! epoch announcement and park, so a drained service never delays
//! reclamation domain-wide.
//!
//! Who executes a lane's requests is decided by the lane's *executor
//! token*: the worker holds it for each drain, and
//! [`Service::batch_on`] takes it to run a leg on the caller's own
//! handle when the lane is idle (open, token free, ring empty), waiting
//! briefly for a token another caller's inline leg holds while nothing
//! is queued. One holder at a time, and a leg runs inline only while
//! nothing is queued, so ring order, per-key order and an upsert's
//! atomicity against the rest of its lane are the same whoever
//! executes.
//!
//! Shutdown closes every ring (freezing the claim counters), wakes
//! everyone, and joins the workers; each worker finishes the batch it
//! already popped, then resolves everything still queued with
//! [`Error::Shutdown`] and withdraws from its epoch domain.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::task::{ready, Context, Poll, Waker};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lf_core::{ConcurrentMap, FrList, SkipList};
use lf_map::BucketMap;
use lf_shard::ShardedSkipList;
use lf_tagged::Backoff;

use crate::backend::{apply, AsyncBackend, BackendHandle};
use crate::metrics::{ServiceMetrics, ServiceSnapshot};
use crate::op::{mint_ops, Error, GetWithVisitor, OpCell, Outcome, Request, Response, Slot, Slots};
use crate::ring::{Pop, PushError, Ring};

/// What a submission does when its lane's queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackpressurePolicy {
    /// Suspend the submitting task until the worker frees space. No
    /// request is lost; producers slow to the service rate.
    #[default]
    Block,
    /// Fail the new request immediately with [`Error::Rejected`].
    Reject,
    /// Evict the *oldest* queued request (resolving it with
    /// [`Error::Shed`]) to make room for the new one — freshest-first
    /// under overload.
    Shed,
}

/// How long an idle worker parks before re-checking its lane. The
/// wake flag is advisory (Relaxed), so a notification can be missed;
/// this bounds the resulting stall instead of paying for a SeqCst
/// flag handshake on every enqueue.
const IDLE_PARK: Duration = Duration::from_millis(1);

/// How long a point-only [`Service::batch_on`] leg waits for a lane
/// token another caller's inline leg holds, with the ring empty, before
/// it queues: about one worker hand-off, the cost the wait avoids. An
/// inline leg holds the lane for a few µs, so the wait usually ends in
/// a take.
const INLINE_WAIT: Duration = Duration::from_micros(30);

/// Token probes between two `yield_now`s while an inline leg waits: on
/// a host with fewer cores than runnable threads the holder may need
/// this core to finish.
const INLINE_YIELD_EVERY: u32 = 32;

/// [`Lane::token`] values: no one executes the lane.
const FREE: u8 = 0;
/// The lane worker executes one drain.
const DRAIN: u8 = 1;
/// A [`Service::batch_on`] caller executes one inline leg.
const INLINE: u8 = 2;

/// One submission lane: the ring, its worker's parking station, and
/// the producers blocked on a full ring under [`BackpressurePolicy::Block`].
struct Lane<K, V> {
    ring: Ring<Arc<OpCell<K, V>>>,
    /// The executor token: [`DRAIN`] while the worker executes one
    /// drain, [`INLINE`] while a [`Service::batch_on`] caller executes
    /// one leg, [`FREE`] otherwise.
    token: AtomicU8,
    /// Worker is (about to be) parked; producers that see this take the
    /// parker lock and notify.
    sleeping: AtomicBool,
    parker: Mutex<()>,
    wake: Condvar,
    /// Wakers of tasks suspended on a full ring.
    blocked: Mutex<Vec<Waker>>,
}

/// A submitting thread's hold on a lane's executor token; see
/// [`Lane::take_inline`].
struct HandBack<'a, K, V>(&'a Lane<K, V>);

impl<K, V> Drop for HandBack<'_, K, V> {
    fn drop(&mut self) {
        self.0.hand_back();
    }
}

impl<K, V> Lane<K, V> {
    fn new(capacity: usize) -> Self {
        Lane {
            ring: Ring::with_capacity(capacity),
            token: AtomicU8::new(FREE),
            sleeping: AtomicBool::new(false),
            parker: Mutex::new(()),
            wake: Condvar::new(),
            blocked: Mutex::new(Vec::new()),
        }
    }

    /// Take the executor token for `holder` ([`DRAIN`] or [`INLINE`]) if
    /// no one holds it.
    fn take_token(&self, holder: u8) -> bool {
        // ord: Acquire/Relaxed — ASYNC.token: the new holder follows everything the last one executed and popped
        self.token
            .compare_exchange(FREE, holder, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    /// Give the executor token back.
    fn drop_token(&self) {
        // ord: Release — ASYNC.token: orders this holder's executions and pops before the next holder's
        self.token.store(FREE, Ordering::Release);
    }

    /// Give the token back from a submitting thread. Cells that queued
    /// while it ran wake the worker under the parker mutex, so the
    /// hand-back does not wait out the worker's `IDLE_PARK`.
    fn hand_back(&self) {
        self.drop_token();
        if self.ring.len() > 0 {
            let _guard = self.parker.lock().unwrap_or_else(|e| e.into_inner());
            self.wake.notify_one();
        }
    }

    /// Take the executor token for a submitting thread, handed back
    /// when the returned guard drops — also while a panic in the leg
    /// (a `GetWith` visitor, say) unwinds past it, so a panicking leg
    /// cannot wedge the lane.
    ///
    /// A token another caller's inline leg holds while the ring is empty
    /// is waited for, up to [`INLINE_WAIT`]: that leg ends sooner than a
    /// queued leg would be served. The wait gives up as soon as a cell
    /// is queued (the leg would have to queue behind it anyway), the
    /// lane closes or the worker takes the token. A drain is not waited
    /// for: it runs a whole batch, SCAN pages included, and a spinning
    /// caller would take a core from the worker running it.
    fn take_inline(&self) -> Option<HandBack<'_, K, V>> {
        // Lazily: a guard built (and dropped) after a failed take would
        // hand back the current holder's token.
        if self.take_token(INLINE) {
            return Some(HandBack(self));
        }
        let deadline = Instant::now() + INLINE_WAIT;
        let mut probes = 0u32;
        loop {
            if self.ring.len() > 0 || self.ring.is_closed() {
                return None;
            }
            // ord: Relaxed — ASYNC.token: inline wait probe; only the take CAS that follows it orders anything
            match self.token.load(Ordering::Relaxed) {
                FREE if self.take_token(INLINE) => return Some(HandBack(self)),
                DRAIN => return None,
                _ => {}
            }
            probes += 1;
            if probes.is_multiple_of(INLINE_YIELD_EVERY) {
                if Instant::now() >= deadline {
                    return None;
                }
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Nudge the worker if it is parked (or about to park).
    fn notify_worker(&self) {
        // ord: Relaxed — ASYNC.park: advisory flag; a missed notify is bounded by the park timeout
        if self.sleeping.load(Ordering::Relaxed) {
            let _guard = self.parker.lock().unwrap_or_else(|e| e.into_inner());
            self.wake.notify_one();
        }
    }

    /// Park the worker until notified or `IDLE_PARK` elapses, when it
    /// has nothing to run: its ring is empty, or a submitting thread
    /// holds the token.
    fn idle_park(&self) {
        let guard = self.parker.lock().unwrap_or_else(|e| e.into_inner());
        // ord: Relaxed — ASYNC.park: advisory flag; a missed notify is bounded by the park timeout
        self.sleeping.store(true, Ordering::Relaxed);
        // ord: Relaxed — ASYNC.token: park probe; a holder hands back under this mutex, a missed hand-back is bounded by the park timeout
        let held = self.token.load(Ordering::Relaxed) != FREE;
        // Re-check under the flag: items pushed, a close issued or the
        // token handed back just before we raised it would otherwise
        // sleep a full tick.
        if (self.ring.len() == 0 || held) && !self.ring.is_closed() {
            let _ = self
                .wake
                .wait_timeout(guard, IDLE_PARK)
                .unwrap_or_else(|e| e.into_inner());
        }
        // ord: Relaxed — ASYNC.park: advisory flag; a missed notify is bounded by the park timeout
        self.sleeping.store(false, Ordering::Relaxed);
    }

    /// Wake every producer suspended on a full ring.
    fn wake_blocked(&self) {
        let wakers = std::mem::take(&mut *self.blocked.lock().unwrap_or_else(|e| e.into_inner()));
        for w in wakers {
            w.wake();
        }
    }
}

/// State shared by the service front, every future, and every worker.
struct Shared<B: AsyncBackend> {
    backend: B,
    lanes: Box<[Lane<B::Key, B::Value>]>,
    policy: BackpressurePolicy,
    /// Per-lane queue capacity (after power-of-two rounding).
    queue_capacity: usize,
    /// Requests a worker drains per batch, fixed at build; a drain
    /// never splits a cell, so its last cell may carry it past.
    batch_max: usize,
    metrics: ServiceMetrics,
    next_lane: AtomicUsize,
    /// One heartbeat per lane when the stall watchdog is enabled
    /// (empty otherwise): the worker pulses it per batch item so a
    /// wedged or runaway worker is detectable from outside.
    hearts: Vec<Arc<lf_trace::watchdog::Heartbeat>>,
}

/// Test-only stall injection: when installed, whichever thread executes
/// a request — the lane worker, or a [`Service::batch_on`] caller
/// running an inline leg — calls the hook (with the lane index) before
/// executing it. A hook that sleeps simulates a wedged worker for
/// watchdog tests. Hidden from docs; not part of the public API
/// contract.
static STALL_HOOK: std::sync::OnceLock<Box<dyn Fn(usize) + Send + Sync>> =
    std::sync::OnceLock::new();

#[doc(hidden)]
pub fn install_stall_hook(hook: Box<dyn Fn(usize) + Send + Sync>) {
    let _ = STALL_HOOK.set(hook);
}

/// Outcome of one submission attempt.
enum Submit<K, V> {
    /// Queued; await the cell.
    Queued(Arc<OpCell<K, V>>),
    /// Ring full under `Block`; waker registered, caller returns
    /// `Pending` and retries with the handed-back requests on re-poll.
    WouldBlock(Slots<K, V>),
    /// Terminal failure of every request.
    Failed(Error),
}

impl<B: AsyncBackend> Shared<B> {
    /// The lane for requests the backend does not route itself: the
    /// next round-robin ticket. With one lane there is nothing to
    /// choose.
    fn free_lane(&self) -> usize {
        let lanes = self.lanes.len();
        if lanes == 1 {
            return 0;
        }
        // ord: Relaxed — ASYNC.stat: round-robin ticket, no ordering needed
        self.next_lane.fetch_add(1, Ordering::Relaxed) % lanes
    }

    /// The lane `req` takes: its key's partition mod the lane count when
    /// the backend is partitioned, else `free()`. With one lane the
    /// backend is not asked to hash the key.
    fn lane_of(&self, req: &Request<B::Key, B::Value>, free: impl FnOnce() -> usize) -> usize {
        let lanes = self.lanes.len();
        if lanes == 1 {
            return 0;
        }
        req.key()
            .and_then(|k| self.backend.partition_of(k))
            .map_or_else(free, |p| p % lanes)
    }

    /// Cut a batch into one leg per lane it touches, each keeping its
    /// requests in input order. Requests the backend does not route
    /// share one lane for the whole batch, so a batch over a backend
    /// without affinity is a single cell.
    fn split(&self, reqs: Vec<Request<B::Key, B::Value>>) -> Vec<Leg<B::Key, B::Value>> {
        if reqs.is_empty() {
            return Vec::new();
        }
        if self.lanes.len() == 1 {
            return vec![Leg::new(0, Slots::many(reqs))];
        }
        let mut free = None;
        let route: Vec<usize> = reqs
            .iter()
            .map(|r| self.lane_of(r, || *free.get_or_insert_with(|| self.free_lane())))
            .collect();
        if route.iter().all(|&l| l == route[0]) {
            return vec![Leg::new(route[0], Slots::many(reqs))];
        }
        let mut legs: Vec<Leg<B::Key, B::Value>> = Vec::new();
        for (i, (req, lane)) in reqs.into_iter().zip(route).enumerate() {
            let j = legs.iter().position(|l| l.lane == lane).unwrap_or_else(|| {
                legs.push(Leg::new(lane, Slots::Many(Vec::new())));
                legs.len() - 1
            });
            let leg = &mut legs[j];
            leg.at.push(i);
            if let Flight::Unsubmitted(Slots::Many(part)) = &mut leg.flight {
                part.push(Slot::Req(req));
            }
        }
        legs
    }

    /// Push one cell holding `slots`' requests onto lane `lane_idx`.
    fn submit(
        &self,
        lane_idx: usize,
        slots: Slots<B::Key, B::Value>,
        cx: &mut Context<'_>,
    ) -> Submit<B::Key, B::Value> {
        let lane = &self.lanes[lane_idx];
        let cell = Arc::new(OpCell::new(slots));
        let n = cell.len();
        // The `enqueue` events go out *before* the push: once the push
        // publishes the cell, the worker's `dequeue` can race ahead of
        // any producer-side bookkeeping, and a dump must never show an
        // op dequeued before it was enqueued. Failed submissions below
        // close the ids with an error-coded `complete` instead of
        // leaving them dangling as false stalls.
        cell.trace(lf_trace::Phase::Enqueue, lane_idx as u32);
        let mut entry = Arc::clone(&cell);
        let backoff = Backoff::new();
        loop {
            match lane.ring.push(entry) {
                Ok(depth) => {
                    self.metrics.record_enqueue(n, depth);
                    lane.notify_worker();
                    return Submit::Queued(cell);
                }
                Err(PushError::Closed(back)) => {
                    drop(back);
                    cell.trace(lf_trace::Phase::Complete, 2);
                    return Submit::Failed(Error::Shutdown);
                }
                Err(PushError::Full(back)) => match self.policy {
                    BackpressurePolicy::Reject => {
                        self.metrics.record_reject(n);
                        drop(back);
                        cell.trace(lf_trace::Phase::Complete, 3);
                        return Submit::Failed(Error::Rejected);
                    }
                    BackpressurePolicy::Shed => {
                        if let Pop::Item(old) = lane.ring.pop() {
                            self.metrics.record_shed(old.len());
                            old.fail(Error::Shed);
                            old.trace(lf_trace::Phase::Complete, 1);
                        } else {
                            // Racing pops emptied or stalled the head;
                            // back off and retry the push.
                            backoff.spin();
                        }
                        entry = back;
                    }
                    BackpressurePolicy::Block => {
                        lane.blocked
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .push(cx.waker().clone());
                        // Retry once after registering: the worker may
                        // have drained (and woken nobody) between our
                        // failed push and the registration.
                        match lane.ring.push(back) {
                            Ok(depth) => {
                                self.metrics.record_enqueue(n, depth);
                                lane.notify_worker();
                                return Submit::Queued(cell);
                            }
                            Err(PushError::Closed(back2)) => {
                                drop(back2);
                                cell.trace(lf_trace::Phase::Complete, 2);
                                return Submit::Failed(Error::Shutdown);
                            }
                            Err(PushError::Full(back2)) => {
                                // Reclaim the requests out of the cell
                                // we never queued; re-polls rebuild it.
                                drop(back2);
                                let slots = cell.take_slots();
                                // Code 4: bounced, will re-enter under
                                // fresh ids on the next poll.
                                cell.trace(lf_trace::Phase::Complete, 4);
                                return Submit::WouldBlock(slots);
                            }
                        }
                    }
                },
            }
        }
    }
}

fn worker_loop<B: AsyncBackend>(shared: &Shared<B>, lane_idx: usize) {
    let lane = &shared.lanes[lane_idx];
    let hb = shared.hearts.get(lane_idx);
    // Every event this worker records carries its lane tag.
    lf_trace::set_thread_lane(lane_idx as u8);
    let handle = shared.backend.handle();
    // One epoch announcement covers a whole drained batch (§10 of
    // DESIGN.md: the pin-per-poll invariant lives with the worker, not
    // the futures).
    let bmax = shared.batch_max;
    handle.amortize_pins(u32::try_from(bmax).unwrap_or(u32::MAX));
    // Sized by the ring, not by `batch_max`: the vector holds cells,
    // `batch_max` counts requests, and a `batch_max` may exceed any
    // allocation that can succeed.
    let mut batch: Vec<Arc<OpCell<B::Key, B::Value>>> =
        Vec::with_capacity(bmax.min(shared.queue_capacity));
    loop {
        if lane.ring.is_closed() {
            shutdown_drain(shared, lane_idx);
            break;
        }
        // A drain runs with the executor token in hand. An empty lane is
        // never claimed, so a submitting thread finds an idle lane's
        // token free; and a token a submitting thread holds is parked
        // on, not spun on — its hand-back wakes us.
        let claimed = lane.ring.len() > 0 && lane.take_token(DRAIN);
        // `batch_max` counts requests, and a cell is never split: the
        // drain stops once it holds that many, its last cell included.
        batch.clear();
        let mut drained = 0;
        while claimed && drained < bmax {
            match lane.ring.pop() {
                Pop::Item(cell) => {
                    drained += cell.len();
                    batch.push(cell);
                }
                Pop::Empty | Pop::Pending => break,
            }
        }
        if batch.is_empty() {
            if claimed {
                lane.drop_token();
            }
            // Withdraw the standing announcement before parking so an
            // idle service never delays reclamation. A parked worker
            // is idle, not stalled: tell the watchdog.
            if let Some(h) = hb {
                h.idle();
            }
            handle.quiesce();
            lane.idle_park();
            continue;
        }
        if let Some(h) = hb {
            h.busy();
        }
        shared.metrics.record_batch(drained);
        let cells = batch.len();
        for (i, cell) in batch.drain(..).enumerate() {
            run_cell(shared, &handle, lane_idx, &cell, drained as u32);
            if i + 1 == cells {
                // The whole drain has run: hand the lane back before the
                // last wake-up, so the task it wakes finds the lane idle.
                lane.drop_token();
            }
            cell.complete();
        }
        // Space was freed: release producers suspended on a full ring.
        lane.wake_blocked();
    }
    if let Some(h) = hb {
        h.idle();
    }
    handle.flush_reclamation();
}

/// Execute one request on `handle`: the service's one per-request
/// routine, run by the lane worker for a drained cell and by a
/// [`Service::batch_on`] caller for an inline leg, always with lane
/// `lane_idx`'s executor token held. `op` is the request's trace id and
/// `drained` the request count of its drain (for the trace).
fn run_request<B: AsyncBackend>(
    shared: &Shared<B>,
    handle: &B::Handle<'_>,
    lane_idx: usize,
    op: u64,
    drained: u32,
    req: Request<B::Key, B::Value>,
) -> Outcome<B::Value> {
    // Adopt the request's identity before any structure access: the
    // lf-core hooks then attribute their events to the submitting
    // task's op, not to the executing thread.
    let trace_guard = lf_trace::enter_op(op);
    lf_trace::emit_aux(lf_trace::Phase::Dequeue, drained);
    if let Some(hook) = STALL_HOOK.get() {
        hook(lane_idx);
    }
    let resp = apply(&shared.backend, handle, req);
    // The front door minted the id, so the async layer — not the sync
    // op boundary — closes it.
    lf_trace::emit_for(op, lf_trace::Phase::Complete, 0);
    drop(trace_guard);
    if let Some(h) = shared.hearts.get(lane_idx) {
        h.beat();
    }
    Ok(resp)
}

/// Execute a popped cell's requests back to back under the worker's
/// batch pin and count them; the caller then completes and wakes the
/// cell once. `drained` is the request count of the drain it belongs
/// to (for the trace).
fn run_cell<B: AsyncBackend>(
    shared: &Shared<B>,
    handle: &B::Handle<'_>,
    lane_idx: usize,
    cell: &OpCell<B::Key, B::Value>,
    drained: u32,
) {
    cell.execute(|i, req| run_request(shared, handle, lane_idx, cell.op_id(i), drained, req));
    shared
        .metrics
        .record_complete(cell.len(), cell.elapsed_ns());
}

/// Run an unsubmitted `leg` on the caller's `handle` if its lane is
/// idle — open, token free, ring empty under the token — and report
/// whether it ran; otherwise leave it to queue. A token another
/// caller's inline leg holds while the ring is empty is waited for, up
/// to [`INLINE_WAIT`] (see [`Lane::take_inline`]). A leg holding a
/// `Scan` always queues: run inline with the same wait, scans raised
/// `wire_scan`'s throughput but cost more CPU per command, as each page
/// walk (~5.5 µs) held the lane for a colliding point leg to spin out.
fn run_inline<B: AsyncBackend>(
    shared: &Shared<B>,
    handle: &B::Handle<'_>,
    leg: &mut Leg<B::Key, B::Value>,
) -> bool {
    let Flight::Unsubmitted(slots) = &mut leg.flight else {
        return false;
    };
    let lane_idx = leg.lane;
    let lane = &shared.lanes[lane_idx];
    if slots.has_scan() {
        return false;
    }
    let Some(_token) = lane.take_inline() else {
        return false;
    };
    let idle = lane.ring.len() == 0 && !lane.ring.is_closed();
    if idle {
        let start = Instant::now();
        let mut slots = std::mem::replace(slots, Slots::Many(Vec::new()));
        let n = slots.len();
        let ops = mint_ops(n);
        for &op in &ops {
            lf_trace::emit_for(op, lf_trace::Phase::Enqueue, lane_idx as u32);
        }
        handle.amortize_pins(n as u32);
        slots.execute(|i, req| {
            let op = ops.get(i).copied().unwrap_or(0);
            run_request(shared, handle, lane_idx, op, n as u32, req)
        });
        shared
            .metrics
            .record_inline(n, start.elapsed().as_nanos() as u64);
        leg.flight = Flight::Done(slots);
    }
    idle
}

/// Resolve everything still queued on a closed lane with
/// [`Error::Shutdown`], spinning out in-flight publishers.
fn shutdown_drain<B: AsyncBackend>(shared: &Shared<B>, lane_idx: usize) {
    let lane = &shared.lanes[lane_idx];
    let backoff = Backoff::new();
    loop {
        match lane.ring.pop() {
            Pop::Item(cell) => {
                shared.metrics.record_shutdown_drop(cell.len());
                cell.fail(Error::Shutdown);
                cell.trace(lf_trace::Phase::Complete, 2);
            }
            Pop::Pending => backoff.spin(),
            Pop::Empty => break,
        }
    }
    lane.wake_blocked();
}

/// Configuration surface for [`Service`]; [`build`](Self::build) takes
/// the structure to front.
///
/// ```
/// use lf_async::{BackpressurePolicy, ServiceBuilder};
/// use lf_shard::ShardedSkipList;
///
/// let service = ServiceBuilder::new()
///     .workers(2)
///     .queue_capacity(256)
///     .batch_max(32)
///     .policy(BackpressurePolicy::Block)
///     .build(ShardedSkipList::<u64, u64>::new(4));
/// assert_eq!(service.backend().shard_count(), 4);
/// service.shutdown();
/// ```
#[derive(Debug, Clone)]
pub struct ServiceBuilder {
    workers: usize,
    queue_capacity: usize,
    batch_max: usize,
    policy: BackpressurePolicy,
    watchdog_deadline: Option<Duration>,
    watchdog_dump: Option<std::path::PathBuf>,
}

impl Default for ServiceBuilder {
    fn default() -> Self {
        ServiceBuilder {
            workers: 2,
            queue_capacity: 1024,
            batch_max: 64,
            policy: BackpressurePolicy::Block,
            watchdog_deadline: None,
            watchdog_dump: None,
        }
    }
}

impl ServiceBuilder {
    /// Defaults: 2 workers, 1024-deep lanes, 64-op batches, `Block`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of lane workers (≥ 1). One submission lane per worker.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Per-lane queue capacity (rounded up to a power of two, ≥ 2).
    pub fn queue_capacity(mut self, cap: usize) -> Self {
        self.queue_capacity = cap.max(2);
        self
    }

    /// Maximum requests a worker executes per drained batch (≥ 1).
    pub fn batch_max(mut self, n: usize) -> Self {
        self.batch_max = n.max(1);
        self
    }

    /// What submissions do when a lane is full.
    pub fn policy(mut self, p: BackpressurePolicy) -> Self {
        self.policy = p;
        self
    }

    /// Enable the `lf-trace` stall watchdog: each lane worker gets a
    /// heartbeat, and a busy worker that makes no progress for
    /// `deadline` (wedged, or spinning a runaway retry loop) trips a
    /// flight-recorder dump. The monitor also watches for reclamation
    /// stalls (retires mounting while the epoch sits still) and
    /// services `SIGUSR1` dump requests.
    pub fn watchdog(mut self, deadline: Duration) -> Self {
        self.watchdog_deadline = Some(deadline);
        self
    }

    /// Where the watchdog writes flight-recorder dumps. Defaults to
    /// the `LF_TRACE_DUMP` environment variable; with neither set,
    /// trips are still counted and reported, just not dumped.
    pub fn watchdog_dump(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.watchdog_dump = Some(path.into());
        self
    }

    /// Build a service fronting `backend` and start its workers.
    pub fn build<B: AsyncBackend>(self, backend: B) -> Service<B> {
        let queue_capacity = self.queue_capacity.max(2).next_power_of_two();
        let lanes: Vec<Lane<B::Key, B::Value>> = (0..self.workers)
            .map(|_| Lane::new(queue_capacity))
            .collect();
        let (watchdog, hearts) = match self.watchdog_deadline {
            Some(deadline) => {
                let wd = lf_trace::watchdog::Watchdog::start(lf_trace::watchdog::Config {
                    deadline,
                    dump_path: self.watchdog_dump.clone(),
                    install_sigusr1: true,
                    ..lf_trace::watchdog::Config::default()
                });
                let hearts = (0..self.workers)
                    .map(|i| wd.register(&format!("lane-{i}")))
                    .collect();
                (Some(wd), hearts)
            }
            None => (None, Vec::new()),
        };
        let shared = Arc::new(Shared {
            backend,
            lanes: lanes.into_boxed_slice(),
            policy: self.policy,
            queue_capacity,
            batch_max: self.batch_max,
            metrics: ServiceMetrics::new(),
            next_lane: AtomicUsize::new(0),
            hearts,
        });
        let workers = (0..self.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("lf-async-worker-{i}"))
                    .spawn(move || worker_loop(&*shared, i))
                    .expect("spawn lane worker")
            })
            .collect();
        Service {
            shared,
            workers: Mutex::new(workers),
            watchdog,
        }
    }
}

/// An async serving façade over one lock-free structure.
///
/// Operations return [`OpFuture`]s that are `Send` (tasks may migrate
/// executor threads between polls) and never hold an epoch guard across
/// an `.await`. Structure access happens on whichever thread holds a
/// lane's executor token: the lane worker, which drains the ring, or a
/// [`batch_on`](Service::batch_on) caller, which runs a leg on its own
/// [`handle`](Service::handle) while the lane is idle and withdraws its
/// epoch announcement before the call returns — before the future it
/// hands back can be awaited.
pub struct Service<B: AsyncBackend> {
    shared: Arc<Shared<B>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Live while the service is, when enabled via
    /// [`ServiceBuilder::watchdog`]; its monitor thread stops on drop.
    watchdog: Option<lf_trace::watchdog::Watchdog>,
}

/// A [`Service`] over [`FrList`], generic over the reclamation
/// backend (default EBR). Every alias below is built the same way:
/// [`ServiceBuilder::build`] over a constructed structure.
pub type AsyncList<K, V, R = lf_reclaim::Ebr> = Service<FrList<K, V, R>>;
/// A [`Service`] over [`SkipList`].
pub type AsyncSkipList<K, V, R = lf_reclaim::Ebr> = Service<SkipList<K, V, R>>;
/// A [`Service`] over a [`ShardedSkipList`], lanes affine to shards.
pub type AsyncShardedMap<K, V, R = lf_reclaim::Ebr> = Service<ShardedSkipList<K, V, R>>;
/// A [`Service`] over an `lf-map` [`BucketMap`], lanes affine to
/// buckets.
pub type AsyncHashMap<K, V, R = lf_reclaim::Ebr> = Service<BucketMap<K, V, R>>;

impl<B: AsyncBackend> Service<B> {
    /// Look up `key` (clone of the value).
    pub fn get(&self, key: B::Key) -> OpFuture<B> {
        self.op(Request::Get(key))
    }

    /// Membership test.
    pub fn contains(&self, key: B::Key) -> OpFuture<B> {
        self.op(Request::Contains(key))
    }

    /// Insert `key → value`; resolves to `Response::Inserted(false)` on
    /// a duplicate key.
    pub fn insert(&self, key: B::Key, value: B::Value) -> OpFuture<B> {
        self.op(Request::Insert(key, value))
    }

    /// Insert `key → value`, replacing an existing binding. The thread
    /// executing the lane retries remove+insert inside **one** request,
    /// so the upsert holds a single place in its lane's order: a later
    /// same-lane request sees either the old binding or the new one,
    /// never the retry loop's gap. Resolves to
    /// `Response::Inserted(true)` once an insert round won, or
    /// `Inserted(false)` if the bounded budget ran out racing direct
    /// synchronous-handle writers of the same key.
    pub fn upsert(&self, key: B::Key, value: B::Value) -> OpFuture<B> {
        self.op(Request::Upsert(key, value))
    }

    /// Remove `key`, resolving to the removed value.
    pub fn remove(&self, key: B::Key) -> OpFuture<B> {
        self.op(Request::Remove(key))
    }

    /// Zero-copy lookup: `f` runs over the value **in place** on the
    /// lane worker, under the worker's batch-amortized epoch pin — the
    /// value is never cloned across the queue, only `f`'s result comes
    /// back. Resolves to `Ok(Some(r))` if the key was present,
    /// `Ok(None)` if absent. No epoch guard is held across any
    /// `.await`: the visitor runs synchronously inside the worker's
    /// `apply`, and the future owns only the result slot.
    pub fn get_with<R, F>(&self, key: B::Key, f: F) -> GetWithFuture<B, R>
    where
        R: Send + 'static,
        F: FnOnce(&B::Value) -> R + Send + 'static,
    {
        let slot: Arc<Mutex<Option<R>>> = Arc::new(Mutex::new(None));
        let out = Arc::clone(&slot);
        let visitor: GetWithVisitor<B::Value> = Box::new(move |v| {
            if let Some(v) = v {
                *out.lock().unwrap_or_else(|e| e.into_inner()) = Some(f(v));
            }
        });
        GetWithFuture {
            inner: self.op(Request::GetWith(key, visitor)),
            slot,
        }
    }

    /// Ordered scan: resolve to up to `limit` `(key, value)` pairs with
    /// keys strictly greater than `after` (`None` = from the smallest
    /// key), in ascending key order. A thin wrapper over
    /// [`scan_with`](Service::scan_with) whose visitor clones each pair
    /// into a page and hands the page to the future at its closing
    /// call. Only meaningful when
    /// [`supports_scan`](Service::supports_scan) is true; hash tiers
    /// resolve to an empty page.
    pub fn scan(&self, after: Option<B::Key>, limit: usize) -> ScanFuture<B> {
        let slot = Arc::new(Mutex::new(Vec::new()));
        let out = Arc::clone(&slot);
        let mut page = Vec::new();
        let inner = self.scan_with(after, limit, move |pair| {
            match pair {
                Some((k, v)) => page.push((k.clone(), v.clone())),
                None => *out.lock().unwrap_or_else(|e| e.into_inner()) = std::mem::take(&mut page),
            }
            true
        });
        ScanFuture { inner, slot }
    }

    /// Zero-copy ordered scan: `visitor` is shown up to `limit` pairs
    /// with keys strictly greater than `after` (`None` = from the
    /// smallest key) **in place**, in ascending key order, on a lane
    /// worker under its batch-amortized epoch pin; it returns `false`
    /// to stop early, and is called exactly once more with `None` when
    /// the page ends (see [`ScanVisitor`](crate::ScanVisitor) for the
    /// full contract — in particular it must not block). Nothing is
    /// cloned across the queue: what the visitor keeps, and how it
    /// reaches the caller, is the visitor's business. Resolves to
    /// `Response::Scanned(n)`, the number of pairs shown.
    pub fn scan_with<F>(&self, after: Option<B::Key>, limit: usize, visitor: F) -> OpFuture<B>
    where
        F: FnMut(Option<(&B::Key, &B::Value)>) -> bool + Send + 'static,
    {
        self.op(Request::Scan(after, limit, Box::new(visitor)))
    }

    /// Whether the backend serves ordered scans
    /// ([`ConcurrentMap::ORDERED`](lf_core::ConcurrentMap::ORDERED)).
    /// Hash tiers do not — their iteration order is bucket order — so
    /// callers (the wire server) refuse SCAN up front instead of
    /// enqueueing a request the worker would answer with zero pairs.
    pub fn supports_scan(&self) -> bool {
        B::ORDERED
    }

    /// Submit any [`Request`]: a batch of one, through the same cell
    /// and worker loop as [`batch`](Service::batch).
    pub fn op(&self, req: Request<B::Key, B::Value>) -> OpFuture<B> {
        OpFuture {
            shared: Arc::clone(&self.shared),
            flight: Flight::Unsubmitted(Slots::One(Slot::Req(req))),
        }
    }

    /// Submit `reqs` together, resolving to one outcome per request in
    /// input order.
    ///
    /// The batch takes one ring slot per lane it touches: the backend's
    /// [`partition_of`](lf_core::ConcurrentMap::partition_of) affinity splits it across
    /// lanes, keeping input order within each, while requests it does
    /// not route — and every request, on backends without affinity —
    /// share one lane. Each lane's worker runs its cell's requests back
    /// to back in that order and completes and wakes the cell once, so
    /// requests of one batch on one key take effect in input order.
    /// Backpressure treats a cell as a unit: a shed, rejected or
    /// shut-down cell resolves every one of its requests with the error
    /// (and the service counters count each of them). Submission is
    /// lazy, on first poll, as for [`OpFuture`].
    pub fn batch(&self, reqs: Vec<Request<B::Key, B::Value>>) -> BatchFuture<B> {
        BatchFuture {
            len: reqs.len(),
            legs: self.shared.split(reqs),
            shared: Arc::clone(&self.shared),
        }
    }

    /// [`batch`](Service::batch), except that a leg whose lane is idle
    /// runs right here, on `handle`, before this returns.
    ///
    /// A leg runs inline when its lane is open, its executor token is
    /// free and its ring is empty under the token, and it holds no
    /// `Scan`; it then touches no ring, worker or waker, and the future
    /// holds its outcomes already. A point-only leg that finds another
    /// caller's inline leg holding the token while the ring is empty
    /// spins for it for up to ~30 µs, about one worker hand-off,
    /// yielding now and then; it stops waiting as soon as a cell is
    /// queued, the lane closes or the worker takes the token. Every
    /// other leg queues exactly as under `batch`. One thread holds a
    /// lane's token at a time and only while nothing is queued, so
    /// per-key order, ring order and an upsert's atomicity against the
    /// rest of its lane are as under `batch`. An inline leg counts in
    /// the service metrics as a drained cell would (plus `inline`,
    /// minus the depth sample). It runs under one amortized epoch
    /// announcement, withdrawn before this returns: no pin outlives the
    /// call.
    ///
    /// `handle` must come from this service's [`handle`](Service::handle).
    pub fn batch_on(
        &self,
        handle: &B::Handle<'_>,
        reqs: Vec<Request<B::Key, B::Value>>,
    ) -> BatchFuture<B> {
        let mut fut = self.batch(reqs);
        let mut ran = false;
        for leg in &mut fut.legs {
            ran |= run_inline(&self.shared, handle, leg);
        }
        if ran {
            handle.quiesce();
        }
        fut
    }

    /// Register the calling thread with the backend: the handle
    /// [`batch_on`](Service::batch_on) runs inline legs on. Like every
    /// structure handle it stays on the thread that made it; drop it
    /// (or call `flush_reclamation` on it) when the thread goes idle
    /// for long, so what it retired is freed.
    pub fn handle(&self) -> B::Handle<'_> {
        self.shared.backend.handle()
    }

    /// Racy-fresh size of the underlying structure (no queue round
    /// trip; reads the structure's own counter).
    pub fn len(&self) -> usize {
        self.shared.backend.len()
    }

    /// Whether the structure is empty (racy-fresh).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current service metrics.
    pub fn metrics(&self) -> ServiceSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Number of submission lanes (== workers).
    pub fn lane_count(&self) -> usize {
        self.shared.lanes.len()
    }

    /// Per-lane queue capacity (after power-of-two rounding).
    pub fn queue_capacity(&self) -> usize {
        self.shared.queue_capacity
    }

    /// Maximum requests a lane worker drains per batch, as set by
    /// [`ServiceBuilder::batch_max`].
    pub fn batch_max(&self) -> usize {
        self.shared.batch_max
    }

    /// The backend structure this service fronts (e.g. for a
    /// [`ShardedSkipList`]'s per-shard snapshot).
    pub fn backend(&self) -> &B {
        &self.shared.backend
    }

    /// The stall watchdog, when enabled via
    /// [`ServiceBuilder::watchdog`] — e.g. to poll
    /// [`trips`](lf_trace::watchdog::Watchdog::trips) or pull the
    /// [`last_report`](lf_trace::watchdog::Watchdog::last_report).
    pub fn watchdog(&self) -> Option<&lf_trace::watchdog::Watchdog> {
        self.watchdog.as_ref()
    }

    /// Shut down gracefully: stop accepting, let workers finish the
    /// batches they already popped, resolve everything still queued
    /// with [`Error::Shutdown`], quiesce the epoch domain, and join
    /// the workers. Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        for lane in self.shared.lanes.iter() {
            lane.ring.close();
        }
        for lane in self.shared.lanes.iter() {
            // Take the parker lock so a worker between its closed-check
            // and its park cannot miss the notification entirely.
            let _guard = lane.parker.lock().unwrap_or_else(|e| e.into_inner());
            lane.wake.notify_one();
            drop(_guard);
            lane.wake_blocked();
        }
        let handles = std::mem::take(&mut *self.workers.lock().unwrap_or_else(|e| e.into_inner()));
        for h in handles {
            let _ = h.join();
        }
    }
}

impl<B: AsyncBackend> Drop for Service<B> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl<B: AsyncBackend> std::fmt::Debug for Service<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("lanes", &self.shared.lanes.len())
            .field("batch_max", &self.shared.batch_max)
            .field("policy", &self.shared.policy)
            .finish()
    }
}

/// One cell's worth of a future's requests, on its way through a lane.
enum Flight<K, V> {
    /// Not yet queued (first poll, or bounced off a full ring under
    /// `Block`). Holds the request payloads.
    Unsubmitted(Slots<K, V>),
    /// Queued; waiting on the completion cell.
    Waiting(Arc<OpCell<K, V>>),
    /// Resolved: one outcome per request, until the future takes them.
    Done(Slots<K, V>),
}

impl<K, V> Flight<K, V> {
    /// Drive toward `Done`: submit to `lane` while unsubmitted, then
    /// wait on the cell. `Ready` once the outcomes are in.
    fn poll<B: AsyncBackend<Key = K, Value = V>>(
        &mut self,
        shared: &Shared<B>,
        cx: &mut Context<'_>,
        lane: usize,
    ) -> Poll<()> {
        if let Flight::Unsubmitted(slots) = self {
            let slots = std::mem::replace(slots, Slots::Many(Vec::new()));
            let n = slots.len();
            *self = match shared.submit(lane, slots, cx) {
                Submit::Queued(cell) => Flight::Waiting(cell),
                Submit::WouldBlock(back) => {
                    *self = Flight::Unsubmitted(back);
                    return Poll::Pending;
                }
                Submit::Failed(e) => {
                    Flight::Done(Slots::Many((0..n).map(|_| Slot::Out(Err(e))).collect()))
                }
            };
        }
        if let Flight::Waiting(cell) = self {
            match cell.poll_result(cx) {
                Poll::Ready(slots) => *self = Flight::Done(slots),
                Poll::Pending => return Poll::Pending,
            }
        }
        Poll::Ready(())
    }

    /// The outcomes of a `Done` flight, leaving it empty.
    fn take(&mut self) -> impl Iterator<Item = Outcome<V>> {
        match std::mem::replace(self, Flight::Done(Slots::Many(Vec::new()))) {
            Flight::Done(slots) => slots,
            _ => Slots::Many(Vec::new()),
        }
        .into_outcomes()
    }
}

/// The part of a batch bound for one lane.
struct Leg<K, V> {
    lane: usize,
    /// Input positions of the leg's requests, when the batch spans
    /// several lanes; empty when the leg is the whole batch.
    at: Vec<usize>,
    flight: Flight<K, V>,
}

impl<K, V> Leg<K, V> {
    fn new(lane: usize, slots: Slots<K, V>) -> Self {
        Leg {
            lane,
            at: Vec::new(),
            flight: Flight::Unsubmitted(slots),
        }
    }
}

/// A submitted (or to-be-submitted) operation.
///
/// `Send` whenever the key/value types are: the future owns no epoch
/// guard, no handle, and no borrow of the structure — only the request
/// payload and a reference-counted completion cell. Submission happens
/// lazily on first poll; dropping the future at any point leaks
/// nothing (a queued request may still execute — it is simply
/// *detached*, and its result is discarded with the cell).
pub struct OpFuture<B: AsyncBackend> {
    shared: Arc<Shared<B>>,
    flight: Flight<B::Key, B::Value>,
}

// The future holds no self-references — pinning is structural only.
impl<B: AsyncBackend> Unpin for OpFuture<B> {}

/// The submission probe of the service's single-request future types:
/// whether a request has entered its lane ring yet.
///
/// A front end that submits futures one at a time polls each until
/// [`is_enqueued`](LaneFuture::is_enqueued) before dispatching the
/// next, so a lane's ring order follows dispatch order even when a
/// full ring bounces a poll under [`BackpressurePolicy::Block`]. A
/// [`BatchFuture`] needs no probe: it is one cell per lane by
/// construction.
pub trait LaneFuture: Future {
    /// Whether the request has entered its lane ring (or already
    /// resolved). `false` only before the first poll, or after a poll
    /// that bounced off a full ring under
    /// [`BackpressurePolicy::Block`].
    fn is_enqueued(&self) -> bool;
}

impl<B: AsyncBackend> LaneFuture for OpFuture<B> {
    fn is_enqueued(&self) -> bool {
        !matches!(self.flight, Flight::Unsubmitted(_))
    }
}

impl<B: AsyncBackend> Future for OpFuture<B> {
    type Output = Result<Response<B::Value>, Error>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let shared = &*this.shared;
        let lane = match &this.flight {
            Flight::Unsubmitted(Slots::One(Slot::Req(req))) => {
                shared.lane_of(req, || shared.free_lane())
            }
            _ => 0,
        };
        ready!(this.flight.poll(shared, cx, lane));
        Poll::Ready(
            this.flight
                .take()
                .next()
                .expect("OpFuture polled after completion"),
        )
    }
}

/// A submitted (or to-be-submitted) batch; see [`Service::batch`].
///
/// Resolves to one outcome per request, in input order. `Send` for the
/// same reason [`OpFuture`] is; submission is lazy, on first poll, and
/// dropping the future detaches whatever it queued.
pub struct BatchFuture<B: AsyncBackend> {
    shared: Arc<Shared<B>>,
    legs: Vec<Leg<B::Key, B::Value>>,
    /// Requests in the batch.
    len: usize,
}

// No self-references — pinning is structural only, as for `OpFuture`.
impl<B: AsyncBackend> Unpin for BatchFuture<B> {}

impl<B: AsyncBackend> Future for BatchFuture<B> {
    type Output = Vec<Result<Response<B::Value>, Error>>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let mut pending = false;
        for leg in &mut this.legs {
            pending |= leg.flight.poll(&this.shared, cx, leg.lane).is_pending();
        }
        if pending {
            return Poll::Pending;
        }
        if let [leg] = &mut this.legs[..] {
            if leg.at.is_empty() {
                return Poll::Ready(leg.flight.take().collect());
            }
        }
        let mut outs: Vec<Option<Outcome<B::Value>>> = (0..this.len).map(|_| None).collect();
        for leg in &mut this.legs {
            for (&i, out) in leg.at.iter().zip(leg.flight.take()) {
                outs[i] = Some(out);
            }
        }
        Poll::Ready(
            outs.into_iter()
                .map(|o| o.expect("every request rides one leg"))
                .collect(),
        )
    }
}

/// A zero-copy lookup in flight; see [`Service::get_with`].
///
/// Wraps an [`OpFuture`] plus the slot the worker-side visitor parks
/// its result in. Resolves to `Ok(Some(r))` when the key was present
/// (visitor ran, produced `r`), `Ok(None)` when absent. `Send` for the
/// same reason `OpFuture` is: no guard, no handle, no borrow — only
/// the cell and the slot.
pub struct GetWithFuture<B: AsyncBackend, R> {
    inner: OpFuture<B>,
    slot: Arc<Mutex<Option<R>>>,
}

// No self-references — pinning is structural only, as for `OpFuture`.
impl<B: AsyncBackend, R> Unpin for GetWithFuture<B, R> {}

impl<B: AsyncBackend, R> LaneFuture for GetWithFuture<B, R> {
    fn is_enqueued(&self) -> bool {
        self.inner.is_enqueued()
    }
}

impl<B: AsyncBackend, R> Future for GetWithFuture<B, R> {
    type Output = Result<Option<R>, Error>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        match Pin::new(&mut this.inner).poll(cx) {
            // The worker wrote the slot before completing the cell;
            // the cell's Release/Acquire edge publishes it, and the
            // mutex makes the read race-free besides.
            Poll::Ready(Ok(_)) => Poll::Ready(Ok(this
                .slot
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .take())),
            Poll::Ready(Err(e)) => Poll::Ready(Err(e)),
            Poll::Pending => Poll::Pending,
        }
    }
}

/// The cloned pairs a [`ScanFuture`] resolves to.
type Page<B> = Vec<(<B as ConcurrentMap>::Key, <B as ConcurrentMap>::Value)>;

/// An ordered scan in flight; see [`Service::scan`].
///
/// Wraps an [`OpFuture`] plus the slot the worker-side visitor parks
/// its page of cloned pairs in. Resolves to the pairs in ascending key
/// order. `Send` for the same reason `OpFuture` is: no guard, no
/// handle, no borrow — only the cell and the slot.
pub struct ScanFuture<B: AsyncBackend> {
    inner: OpFuture<B>,
    slot: Arc<Mutex<Page<B>>>,
}

// No self-references — pinning is structural only, as for `OpFuture`.
impl<B: AsyncBackend> Unpin for ScanFuture<B> {}

impl<B: AsyncBackend> LaneFuture for ScanFuture<B> {
    fn is_enqueued(&self) -> bool {
        self.inner.is_enqueued()
    }
}

impl<B: AsyncBackend> Future for ScanFuture<B> {
    type Output = Result<Page<B>, Error>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        match Pin::new(&mut this.inner).poll(cx) {
            // Same publication argument as `GetWithFuture`: the visitor
            // parked its page before the cell's Release store.
            Poll::Ready(Ok(_)) => Poll::Ready(Ok(std::mem::take(
                &mut *this.slot.lock().unwrap_or_else(|e| e.into_inner()),
            ))),
            Poll::Ready(Err(e)) => Poll::Ready(Err(e)),
            Poll::Pending => Poll::Pending,
        }
    }
}
