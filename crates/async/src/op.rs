//! Requests, responses, and the completion cell a future waits on.
//!
//! An [`OpCell`] is the rendezvous between the submitting task and the
//! lane worker: the producer parks the request payload (and its waker)
//! in the cell and pushes an `Arc` of it onto the lane ring; whoever
//! pops the cell — the worker, or a shedding producer — takes the
//! request, executes or fails it, writes the result, and flips the
//! state word with a Release store that the future's Acquire poll pairs
//! with. Dropping the future mid-flight just drops one `Arc`: the
//! worker completes into a cell nobody reads and the payload is freed
//! when the last `Arc` goes — no pins, no nodes, and no wakers leak.

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
    /// [`AsyncBackend::supports_scan`](crate::AsyncBackend::supports_scan);
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

    /// The `Contains`/`Insert`/`GetWith` boolean; `false` for other
    /// variants.
    pub fn as_bool(&self) -> bool {
        match self {
            Response::Found(b) | Response::Inserted(b) | Response::Visited(b) => *b,
            _ => false,
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

/// The shared completion slot for one in-flight operation.
///
/// Exactly two `Arc`s exist while queued: the future's and the ring's.
/// Access discipline: `req` belongs to whichever thread pops the cell
/// off the ring (exclusive by the ring's ownership transfer); `resp`
/// is written by that popper before the Release `state` store and read
/// by the future only after an Acquire load observes `DONE`.
pub(crate) struct OpCell<K, V> {
    state: AtomicU8,
    req: UnsafeCell<Option<Request<K, V>>>,
    resp: UnsafeCell<Option<Result<Response<V>, Error>>>,
    waker: Mutex<Option<Waker>>,
    enqueued_at: Instant,
    /// Causal-trace id minted at the front door (0 when tracing is
    /// off). This is the id's cross-thread carrier: the lane worker
    /// re-enters it (`lf_trace::enter_op`) before touching the
    /// structure, so the op's events stay attributed across the ring.
    op: u64,
}

// SAFETY: `req`/`resp` are raced only through the protocol above — the
// ring transfers exclusive `req` access to the popper, and the
// Release(DONE)/Acquire(state) edge orders the popper's `resp` write
// before the future's read. `waker` is mutex-guarded and `state` is
// atomic, so `&OpCell` is safe to share once `K` and `V` can move
// between threads.
unsafe impl<K: Send, V: Send> Send for OpCell<K, V> {}
// SAFETY: as above.
unsafe impl<K: Send, V: Send> Sync for OpCell<K, V> {}

impl<K, V> OpCell<K, V> {
    /// A fresh cell holding `req`, stamped now for latency accounting.
    pub(crate) fn new(req: Request<K, V>) -> Self {
        OpCell {
            state: AtomicU8::new(PENDING),
            req: UnsafeCell::new(Some(req)),
            resp: UnsafeCell::new(None),
            waker: Mutex::new(None),
            enqueued_at: Instant::now(),
            op: lf_trace::mint_op(),
        }
    }

    /// The causal-trace id minted for this operation (0 when tracing
    /// was off at submission).
    pub(crate) fn op_id(&self) -> u64 {
        self.op
    }

    /// Take the request payload. Caller must be the thread that popped
    /// this cell off the ring (or otherwise hold exclusive access, e.g.
    /// a producer reclaiming a cell that never enqueued).
    pub(crate) fn take_req(&self) -> Option<Request<K, V>> {
        // SAFETY: per the access discipline, popping the cell off the
        // ring (or never having pushed it) makes the caller the sole
        // accessor of `req`.
        unsafe { (*self.req.get()).take() }
    }

    /// Nanoseconds since the cell was created (enqueue-to-now).
    pub(crate) fn elapsed_ns(&self) -> u64 {
        self.enqueued_at.elapsed().as_nanos() as u64
    }

    /// Publish the result and wake the waiting task. Called exactly
    /// once, by the thread that popped the cell.
    pub(crate) fn complete(&self, result: Result<Response<V>, Error>) {
        // SAFETY: the single popper writes `resp` before the Release
        // store below; the future reads it only after observing DONE.
        unsafe { *self.resp.get() = Some(result) };
        // ord: Release — ASYNC.op: publishes the resp write to the future's Acquire state load
        self.state.store(DONE, Ordering::Release);
        let w = self.waker.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(w) = w {
            w.wake();
        }
    }

    /// Poll for the result, registering `cx`'s waker while pending.
    pub(crate) fn poll_result(&self, cx: &mut Context<'_>) -> Poll<Result<Response<V>, Error>> {
        // ord: Acquire — ASYNC.op: pairs with the completer's Release DONE store; resp is read below
        if self.state.load(Ordering::Acquire) == DONE {
            return Poll::Ready(self.take_resp());
        }
        *self.waker.lock().unwrap_or_else(|e| e.into_inner()) = Some(cx.waker().clone());
        // Re-check after registering: if the completer took the waker
        // slot before our store, this second look closes the
        // lost-wakeup window.
        // ord: Acquire — ASYNC.op: pairs with the completer's Release DONE store; resp is read below
        if self.state.load(Ordering::Acquire) == DONE {
            return Poll::Ready(self.take_resp());
        }
        Poll::Pending
    }

    fn take_resp(&self) -> Result<Response<V>, Error> {
        // SAFETY: called only after an Acquire load saw DONE, which the
        // completer stored after its `resp` write; the owning future is
        // the sole reader and fuses itself after the first `Ready`.
        unsafe { (*self.resp.get()).take() }.expect("op result taken twice")
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

    #[test]
    fn complete_then_poll_is_ready() {
        let cell: OpCell<u64, u64> = OpCell::new(Request::Get(7));
        assert_eq!(cell.take_req(), Some(Request::Get(7)));
        cell.complete(Ok(Response::Value(Some(9))));
        let w = noop_waker();
        let mut cx = Context::from_waker(&w);
        match cell.poll_result(&mut cx) {
            Poll::Ready(Ok(Response::Value(Some(9)))) => {}
            _ => panic!("expected ready value"),
        }
    }

    #[test]
    fn pending_then_woken_across_threads() {
        let cell: Arc<OpCell<u64, u64>> = Arc::new(OpCell::new(Request::Contains(1)));
        let w = noop_waker();
        let mut cx = Context::from_waker(&w);
        assert!(cell.poll_result(&mut cx).is_pending());
        let c2 = Arc::clone(&cell);
        let t = std::thread::spawn(move || {
            c2.take_req();
            c2.complete(Ok(Response::Found(true)));
        });
        t.join().unwrap();
        match cell.poll_result(&mut cx) {
            Poll::Ready(Ok(Response::Found(true))) => {}
            _ => panic!("expected found"),
        }
    }

    #[test]
    fn error_display_is_stable() {
        assert!(Error::Shutdown.to_string().contains("shut down"));
        assert!(Error::Rejected.to_string().contains("full"));
        assert!(Error::Shed.to_string().contains("shed"));
    }
}
