//! Requests, responses, and the completion cell a future waits on.
//!
//! An [`OpCell`] is the rendezvous between the submitting task and the
//! lane worker: the producer parks one or more requests (and its waker)
//! in the cell and pushes an `Arc` of it onto the lane ring, where the
//! whole cell takes one slot; whoever pops the cell — the worker, or a
//! shedding producer — takes the requests, executes or fails them,
//! writes one result per request, and flips the state word once with a
//! Release store that the future's Acquire poll pairs with. Dropping
//! the future mid-flight just drops one `Arc`: the worker completes
//! into a cell nobody reads and the payload is freed when the last
//! `Arc` goes — no pins, no nodes, and no wakers leak.

use std::cell::UnsafeCell;
use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;
use std::task::{Context, Poll, Waker};
use std::time::Instant;

/// The boxed visitor a [`Request::GetWith`] carries to the lane
/// worker. Called exactly once with `Some(&value)` if the key is
/// present or `None` if absent, on the worker thread, under the
/// worker's (batch-amortized) epoch pin — never across an `.await`.
/// Dropped uncalled only when the request itself dies unexecuted
/// (shutdown/shed), in which case the future resolves with the error.
pub type GetWithVisitor<V> = Box<dyn FnOnce(Option<&V>) + Send>;

/// The boxed visitor a [`Request::Scan`] carries to the lane worker —
/// the [`GetWithVisitor`] convention, per page. Called with
/// `Some((&key, &value))` **in place** for each pair of the page, in
/// ascending key order, on the worker thread under its
/// (batch-amortized) epoch pin; returning `false` stops the walk
/// early. Then called exactly once more with `None` (result ignored),
/// which is where it hands whatever it accumulated to its future — one
/// lock per page rather than a clone per pair. It must not block, do
/// I/O or await: every request queued behind it on the lane waits, and
/// the pin it runs under delays reclamation domain-wide. Dropped
/// uncalled only when the request itself dies unexecuted
/// (shutdown/shed), in which case the future resolves with the error.
pub type ScanVisitor<K, V> = Box<dyn FnMut(Option<(&K, &V)>) -> bool + Send>;

/// A dictionary operation submitted to the service.
pub enum Request<K, V> {
    /// Look up `key`, returning a clone of its value.
    Get(K),
    /// Membership test for `key`.
    Contains(K),
    /// Insert `key → value`.
    Insert(K, V),
    /// Insert `key → value`, replacing an existing binding: the lane
    /// worker retries remove+insert (bounded) until its insert wins.
    /// One ring request — unlike a caller-side remove/insert loop, the
    /// whole upsert occupies a single FIFO slot, so a later same-lane
    /// request observes either the old binding or the new one, never
    /// an interleaving of the retry loop.
    Upsert(K, V),
    /// Remove `key`, returning its value.
    Remove(K),
    /// Look up `key` and run the visitor over the value **in place**
    /// (zero-copy): no clone crosses the queue, only the visitor's own
    /// result (parked in the future's slot).
    GetWith(K, GetWithVisitor<V>),
    /// Ordered scan: show the visitor up to `.1` pairs with keys
    /// strictly greater than `.0` (`None` = from the start), in place,
    /// on the lane worker under its batch-amortized pin. Only ordered
    /// backends walk — see
    /// [`Service::supports_scan`](crate::Service::supports_scan);
    /// hash tiers finish the visitor with an empty page.
    Scan(Option<K>, usize, ScanVisitor<K, V>),
    /// Number of live keys.
    Len,
}

impl<K, V> Request<K, V> {
    /// The one key a point request names; `None` for `Scan` (which
    /// crosses every partition) and `Len` (which has no key).
    pub fn key(&self) -> Option<&K> {
        match self {
            Request::Get(k)
            | Request::Contains(k)
            | Request::Insert(k, _)
            | Request::Upsert(k, _)
            | Request::Remove(k)
            | Request::GetWith(k, _) => Some(k),
            Request::Scan(..) | Request::Len => None,
        }
    }
}

impl<K: fmt::Debug, V> fmt::Debug for Request<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Request::Get(k) => f.debug_tuple("Get").field(k).finish(),
            Request::Contains(k) => f.debug_tuple("Contains").field(k).finish(),
            Request::Insert(k, _) => f.debug_tuple("Insert").field(k).field(&"..").finish(),
            Request::Upsert(k, _) => f.debug_tuple("Upsert").field(k).field(&"..").finish(),
            Request::Remove(k) => f.debug_tuple("Remove").field(k).finish(),
            Request::GetWith(k, _) => f
                .debug_tuple("GetWith")
                .field(k)
                .field(&"<visitor>")
                .finish(),
            Request::Scan(after, limit, _) => f
                .debug_tuple("Scan")
                .field(after)
                .field(limit)
                .field(&"<visitor>")
                .finish(),
            Request::Len => f.write_str("Len"),
        }
    }
}

/// Structural equality; `GetWith` and `Scan` requests compare by their
/// plain fields only (closures have no identity).
impl<K: PartialEq, V: PartialEq> PartialEq for Request<K, V> {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Request::Get(a), Request::Get(b)) => a == b,
            (Request::Contains(a), Request::Contains(b)) => a == b,
            (Request::Insert(a, av), Request::Insert(b, bv)) => a == b && av == bv,
            (Request::Upsert(a, av), Request::Upsert(b, bv)) => a == b && av == bv,
            (Request::Remove(a), Request::Remove(b)) => a == b,
            (Request::GetWith(a, _), Request::GetWith(b, _)) => a == b,
            (Request::Scan(a, al, _), Request::Scan(b, bl, _)) => a == b && al == bl,
            (Request::Len, Request::Len) => true,
            _ => false,
        }
    }
}

impl<K: Eq, V: Eq> Eq for Request<K, V> {}

/// The result of a successfully executed [`Request`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response<V> {
    /// `Get`: the value, if the key was present.
    Value(Option<V>),
    /// `Contains`: whether the key was present.
    Found(bool),
    /// `Insert`: `true` if inserted, `false` on duplicate key.
    /// `Upsert`: `true` once an insert round won, `false` if the retry
    /// budget ran out racing other writers of the key.
    Inserted(bool),
    /// `Remove`: the removed value, if the key was present.
    Removed(Option<V>),
    /// `GetWith`: whether the key was present (the visitor's result
    /// travels through the future's slot, not the response).
    Visited(bool),
    /// `Scan`: how many pairs the request's [`ScanVisitor`] was shown
    /// (what it made of them travels through its own slot).
    Scanned(usize),
    /// `Len`: the size estimate.
    Len(usize),
}

impl<V> Response<V> {
    /// The `Get` payload; `None` for other variants.
    pub fn into_value(self) -> Option<V> {
        match self {
            Response::Value(v) | Response::Removed(v) => v,
            _ => None,
        }
    }
}

/// Why an operation did not execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Error {
    /// The service is shutting down; the request was not executed.
    Shutdown,
    /// The lane queue was full under [`BackpressurePolicy::Reject`].
    ///
    /// [`BackpressurePolicy::Reject`]: crate::BackpressurePolicy::Reject
    Rejected,
    /// This (older) request was evicted by a newer one under
    /// [`BackpressurePolicy::Shed`].
    ///
    /// [`BackpressurePolicy::Shed`]: crate::BackpressurePolicy::Shed
    Shed,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Shutdown => f.write_str("service shut down before the request executed"),
            Error::Rejected => f.write_str("lane queue full (Reject backpressure policy)"),
            Error::Shed => f.write_str("request shed by a newer arrival (Shed policy)"),
        }
    }
}

impl std::error::Error for Error {}

const PENDING: u8 = 0;
const DONE: u8 = 1;

/// What one request came to: its response, or why it did not execute.
pub(crate) type Outcome<V> = Result<Response<V>, Error>;

/// One request of a cell, replaced in place by its outcome once run.
pub(crate) enum Slot<K, V> {
    Req(Request<K, V>),
    Out(Outcome<V>),
}

/// A cell's slots, in submission order: inline for a lone request, so
/// that a single op's cell is one allocation whose request and outcome
/// share the cell's cache lines with its state word, and a vector for a
/// batch.
pub(crate) enum Slots<K, V> {
    One(Slot<K, V>),
    Many(Vec<Slot<K, V>>),
}

impl<K, V> Slots<K, V> {
    /// Slots for a batch's requests.
    pub(crate) fn many(reqs: Vec<Request<K, V>>) -> Self {
        Slots::Many(reqs.into_iter().map(Slot::Req).collect())
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            Slots::One(_) => 1,
            Slots::Many(v) => v.len(),
        }
    }

    fn as_slice(&self) -> &[Slot<K, V>] {
        match self {
            Slots::One(s) => std::slice::from_ref(s),
            Slots::Many(v) => v,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [Slot<K, V>] {
        match self {
            Slots::One(s) => std::slice::from_mut(s),
            Slots::Many(v) => v,
        }
    }

    /// Whether any request still waiting in the slots is a `Scan`.
    pub(crate) fn has_scan(&self) -> bool {
        self.as_slice()
            .iter()
            .any(|s| matches!(s, Slot::Req(Request::Scan(..))))
    }

    /// Replace each request, in order, by its outcome `f(i, request)`.
    pub(crate) fn execute(&mut self, mut f: impl FnMut(usize, Request<K, V>) -> Outcome<V>) {
        for (i, slot) in self.as_mut_slice().iter_mut().enumerate() {
            // The placeholder lives only until the outcome replaces it.
            if let Slot::Req(req) = std::mem::replace(slot, Slot::Out(Err(Error::Shutdown))) {
                *slot = Slot::Out(f(i, req));
            }
        }
    }

    /// The outcomes of completed slots, in order.
    pub(crate) fn into_outcomes(self) -> impl Iterator<Item = Outcome<V>> {
        let (one, many) = match self {
            Slots::One(s) => (Some(s), Vec::new()),
            Slots::Many(v) => (None, v),
        };
        one.into_iter().chain(many).map(|s| match s {
            Slot::Out(o) => o,
            Slot::Req(_) => unreachable!("a completed cell has run every request"),
        })
    }
}

/// Causal-trace ids for `len` requests: one each while tracing is on,
/// and no allocation when it is off (the first mint says which).
pub(crate) fn mint_ops(len: usize) -> Vec<u64> {
    match lf_trace::mint_op() {
        0 => Vec::new(),
        first => std::iter::once(first)
            .chain((1..len).map(|_| lf_trace::mint_op()))
            .collect(),
    }
}

/// The shared completion slot for one ring slot's worth of requests —
/// one for [`Service::op`](crate::Service::op), up to a whole pipeline
/// for [`Service::batch`](crate::Service::batch).
///
/// Exactly two `Arc`s exist while queued: the future's and the ring's.
/// Access discipline: `slots` belongs to whichever thread pops the cell
/// off the ring (exclusive by the ring's ownership transfer); that
/// popper replaces each request by its outcome before the Release
/// `state` store, and the future reads them only after an Acquire load
/// observes `DONE`.
pub(crate) struct OpCell<K, V> {
    state: AtomicU8,
    slots: UnsafeCell<Slots<K, V>>,
    waker: Mutex<Option<Waker>>,
    enqueued_at: Instant,
    /// How many requests the cell carries (fixed at creation).
    len: usize,
    /// Causal-trace id of each request, minted at the front door (empty
    /// when tracing is off). This is the ids' cross-thread carrier: the
    /// lane worker re-enters each (`lf_trace::enter_op`) before touching
    /// the structure, so every request's events stay attributed across
    /// the ring.
    ops: Vec<u64>,
}

// SAFETY: `slots` is raced only through the protocol above — the ring
// transfers exclusive access to the popper, and the
// Release(DONE)/Acquire(state) edge orders the popper's writes before
// the future's read. `waker` is mutex-guarded, `state` is atomic and
// `len`/`ops` are never written after construction, so `&OpCell` is
// safe to share once `K` and `V` can move between threads.
unsafe impl<K: Send, V: Send> Send for OpCell<K, V> {}
// SAFETY: as above.
unsafe impl<K: Send, V: Send> Sync for OpCell<K, V> {}

impl<K, V> OpCell<K, V> {
    /// A fresh cell holding `slots`' requests, stamped now for latency
    /// accounting.
    pub(crate) fn new(slots: Slots<K, V>) -> Self {
        let len = slots.len();
        OpCell {
            state: AtomicU8::new(PENDING),
            slots: UnsafeCell::new(slots),
            waker: Mutex::new(None),
            enqueued_at: Instant::now(),
            len,
            ops: mint_ops(len),
        }
    }

    /// How many requests the cell carries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The causal-trace id of request `i` (0 when tracing was off at
    /// submission).
    pub(crate) fn op_id(&self, i: usize) -> u64 {
        self.ops.get(i).copied().unwrap_or(0)
    }

    /// Record `phase` once for every request of the cell.
    pub(crate) fn trace(&self, phase: lf_trace::Phase, aux: u32) {
        for &op in &self.ops {
            lf_trace::emit_for(op, phase, aux);
        }
    }

    /// Take the slots: the requests back out of a cell that never
    /// entered a ring (the producer that built it holds it alone), or
    /// the outcomes out of a completed one.
    pub(crate) fn take_slots(&self) -> Slots<K, V> {
        // SAFETY: callers hold exclusive access — a cell never pushed
        // was never shared with a popper, and a completed cell's slots
        // belong to its future, which reads them once after observing
        // DONE with Acquire and fuses itself.
        unsafe { std::mem::replace(&mut *self.slots.get(), Slots::Many(Vec::new())) }
    }

    /// Nanoseconds since the cell was created (enqueue-to-now).
    pub(crate) fn elapsed_ns(&self) -> u64 {
        self.enqueued_at.elapsed().as_nanos() as u64
    }

    /// Replace each request, in order, by its outcome `f(i, request)`.
    /// Called once, by the thread that popped the cell, before
    /// [`complete`](Self::complete).
    pub(crate) fn execute(&self, f: impl FnMut(usize, Request<K, V>) -> Outcome<V>) {
        // SAFETY: per the access discipline, popping the cell off the
        // ring makes the caller the sole accessor of `slots` until
        // `complete`'s Release store.
        unsafe { &mut *self.slots.get() }.execute(f);
    }

    /// Publish the outcomes and wake the waiting task. Called exactly
    /// once, by the thread that popped the cell, after
    /// [`execute`](Self::execute).
    pub(crate) fn complete(&self) {
        // ord: Release — ASYNC.op: publishes the slot writes to the future's Acquire state load
        self.state.store(DONE, Ordering::Release);
        let w = self.waker.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(w) = w {
            w.wake();
        }
    }

    /// Resolve every request with `e` unexecuted: the requests (and any
    /// visitors they carry) are dropped uncalled. Called exactly once,
    /// by the thread that popped the cell.
    pub(crate) fn fail(&self, e: Error) {
        self.execute(|_, _| Err(e));
        self.complete();
    }

    /// Poll for the outcomes, registering `cx`'s waker while pending.
    pub(crate) fn poll_result(&self, cx: &mut Context<'_>) -> Poll<Slots<K, V>> {
        // ord: Acquire — ASYNC.op: pairs with the completer's Release DONE store; slots are read below
        if self.state.load(Ordering::Acquire) == DONE {
            return Poll::Ready(self.take_slots());
        }
        *self.waker.lock().unwrap_or_else(|e| e.into_inner()) = Some(cx.waker().clone());
        // Re-check after registering: if the completer took the waker
        // slot before our store, this second look closes the
        // lost-wakeup window.
        // ord: Acquire — ASYNC.op: pairs with the completer's Release DONE store; slots are read below
        if self.state.load(Ordering::Acquire) == DONE {
            return Poll::Ready(self.take_slots());
        }
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::task::{RawWaker, RawWakerVTable};

    fn noop_waker() -> Waker {
        fn clone(_: *const ()) -> RawWaker {
            RawWaker::new(std::ptr::null(), &VTABLE)
        }
        fn noop(_: *const ()) {}
        static VTABLE: RawWakerVTable = RawWakerVTable::new(clone, noop, noop, noop);
        // SAFETY: every vtable entry is a no-op over a null data
        // pointer; nothing is dereferenced.
        unsafe { Waker::from_raw(RawWaker::new(std::ptr::null(), &VTABLE)) }
    }

    /// Poll `cell` once; its outcomes if it completed.
    fn outcomes(cell: &OpCell<u64, u64>) -> Option<Vec<Outcome<u64>>> {
        let w = noop_waker();
        let mut cx = Context::from_waker(&w);
        match cell.poll_result(&mut cx) {
            Poll::Ready(slots) => Some(slots.into_outcomes().collect()),
            Poll::Pending => None,
        }
    }

    #[test]
    fn complete_then_poll_is_ready() {
        let cell: OpCell<u64, u64> = OpCell::new(Slots::One(Slot::Req(Request::Get(7))));
        assert_eq!(cell.len(), 1);
        cell.execute(|i, req| {
            assert_eq!((i, req), (0, Request::Get(7)));
            Ok(Response::Value(Some(9)))
        });
        cell.complete();
        assert_eq!(outcomes(&cell), Some(vec![Ok(Response::Value(Some(9)))]));
    }

    #[test]
    fn unqueued_cell_hands_its_requests_back() {
        let cell: OpCell<u64, u64> =
            OpCell::new(Slots::many(vec![Request::Get(7), Request::Remove(8)]));
        let Slots::Many(back) = cell.take_slots() else {
            panic!("a batch's slots stay a vector");
        };
        let back: Vec<_> = back
            .into_iter()
            .map(|s| match s {
                Slot::Req(r) => r,
                Slot::Out(_) => panic!("never run"),
            })
            .collect();
        assert_eq!(back, vec![Request::Get(7), Request::Remove(8)]);
    }

    #[test]
    fn pending_then_woken_across_threads() {
        let reqs = vec![Request::Contains(1), Request::Get(2), Request::Remove(3)];
        let cell: Arc<OpCell<u64, u64>> = Arc::new(OpCell::new(Slots::many(reqs)));
        assert_eq!(outcomes(&cell), None);
        let c2 = Arc::clone(&cell);
        let t = std::thread::spawn(move || {
            c2.execute(|_, req| {
                Ok(match req {
                    Request::Contains(_) => Response::Found(true),
                    Request::Get(_) => Response::Value(None),
                    _ => Response::Removed(Some(30)),
                })
            });
            c2.complete();
        });
        t.join().unwrap();
        assert_eq!(
            outcomes(&cell),
            Some(vec![
                Ok(Response::Found(true)),
                Ok(Response::Value(None)),
                Ok(Response::Removed(Some(30))),
            ])
        );
    }

    #[test]
    fn fail_resolves_every_request_and_drops_them_unrun() {
        let dropped = Arc::new(());
        let held = Arc::clone(&dropped);
        let visitor: GetWithVisitor<u64> = Box::new(move |_| drop(held));
        let cell: OpCell<u64, u64> = OpCell::new(Slots::many(vec![
            Request::Get(1),
            Request::GetWith(2, visitor),
        ]));
        cell.fail(Error::Shed);
        assert_eq!(
            Arc::strong_count(&dropped),
            1,
            "visitor dropped with its request"
        );
        assert_eq!(outcomes(&cell), Some(vec![Err(Error::Shed); 2]));
    }

    #[test]
    fn error_display_is_stable() {
        assert!(Error::Shutdown.to_string().contains("shut down"));
        assert!(Error::Rejected.to_string().contains("full"));
        assert!(Error::Shed.to_string().contains("shed"));
    }
}
