//! A minimal hand-rolled executor: `block_on` plus a fixed round-robin
//! task set, enough to drive `lf-async`'s futures without pulling an
//! async runtime into the workspace.
//!
//! Wakers are thread-parking tokens: [`block_on`] parks the calling OS
//! thread and its waker unparks it; [`run_all`] multiplexes N futures
//! on the calling thread with one ready-flag per task, polling only
//! tasks whose flag is raised and parking when none is. Both are
//! deliberately tiny — correctness (no lost wakeups, no busy spinning)
//! over throughput tricks — because the service being driven does its
//! real work elsewhere: on its lane workers, or, for a leg that ran
//! inline, before the future was even handed back.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::thread::Thread;

/// Parks the polling thread; `wake` raises a ready flag and unparks.
struct ThreadWaker {
    thread: Thread,
    ready: AtomicBool,
}

impl Wake for ThreadWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        // Release pairs with the Acquire swap in the poll loop: any
        // state the waking thread wrote before `wake` is visible to
        // the woken task's next poll.
        self.ready.store(true, Ordering::Release);
        self.thread.unpark();
    }
}

impl ThreadWaker {
    fn new() -> Arc<Self> {
        Arc::new(ThreadWaker {
            thread: std::thread::current(),
            ready: AtomicBool::new(true),
        })
    }

    /// Lower the flag, returning whether it was raised.
    fn take_ready(&self) -> bool {
        self.ready.swap(false, Ordering::Acquire)
    }
}

/// Drive `fut` to completion on the calling thread.
///
/// The first poll uses a no-op waker, so a future that is already
/// resolved costs no allocation and no `Thread` clone; one that is not
/// is polled again at once with the parking waker, which replaces the
/// no-op one wherever the first poll registered it.
///
/// Spurious unparks (e.g. from an unrelated `Thread::unpark`) are
/// harmless: the loop re-polls only when the ready flag is raised and
/// re-parks otherwise.
pub fn block_on<F: Future>(fut: F) -> F::Output {
    // SAFETY: `fut` is shadowed and never moved again — pinning it to
    // this stack slot upholds `Pin`'s contract for the polls below.
    let mut fut = std::pin::pin!(fut);
    if let Poll::Ready(out) = fut.as_mut().poll(&mut Context::from_waker(Waker::noop())) {
        return out;
    }
    // The flag starts raised, so the loop's first pass re-polls.
    let waker_impl = ThreadWaker::new();
    let waker = Waker::from(Arc::clone(&waker_impl));
    let mut cx = Context::from_waker(&waker);
    loop {
        if waker_impl.take_ready() {
            if let Poll::Ready(out) = fut.as_mut().poll(&mut cx) {
                return out;
            }
        } else {
            std::thread::park();
        }
    }
}

/// Drive `fut` until it resolves *or* `progressed` reports true after
/// a `Pending` poll, parking between polls exactly as [`block_on`]
/// does. Returns `Some(output)` on completion, `None` once the
/// predicate holds (the future stays live in the caller's hands and
/// can be awaited later with a fresh waker).
///
/// This is the submission primitive a pipelining front end needs over
/// lazily-submitted operations: poll each one until its request has
/// *entered its queue* (the predicate), without waiting for the
/// result — so requests enqueue in dispatch order even when a full
/// queue bounces some polls.
pub fn block_on_until<F: Future + Unpin>(
    fut: &mut F,
    mut progressed: impl FnMut(&F) -> bool,
) -> Option<F::Output> {
    let waker_impl = ThreadWaker::new();
    let waker = Waker::from(Arc::clone(&waker_impl));
    let mut cx = Context::from_waker(&waker);
    loop {
        if waker_impl.take_ready() {
            match Pin::new(&mut *fut).poll(&mut cx) {
                Poll::Ready(out) => return Some(out),
                Poll::Pending => {
                    if progressed(fut) {
                        return None;
                    }
                }
            }
        } else {
            std::thread::park();
        }
    }
}

/// Drive a set of boxed futures to completion concurrently on the
/// calling thread, returning their outputs in submission order.
///
/// Each task gets its own waker/ready flag, so a completion on one
/// task never forces a re-poll of the others (no thundering poll).
/// This models a request-per-task runtime closely enough for closed-
/// loop benchmarking: many in-flight operations, one driver thread.
pub fn run_all<T>(futs: Vec<Pin<Box<dyn Future<Output = T> + Send>>>) -> Vec<T> {
    struct Task<T> {
        fut: Pin<Box<dyn Future<Output = T> + Send>>,
        waker_impl: Arc<ThreadWaker>,
        waker: Waker,
        out: Option<T>,
    }
    let mut tasks: Vec<Task<T>> = futs
        .into_iter()
        .map(|fut| {
            let waker_impl = ThreadWaker::new();
            let waker = Waker::from(Arc::clone(&waker_impl));
            Task {
                fut,
                waker_impl,
                waker,
                out: None,
            }
        })
        .collect();
    let mut remaining = tasks.len();
    while remaining > 0 {
        let mut progressed = false;
        for task in tasks.iter_mut() {
            if task.out.is_some() || !task.waker_impl.take_ready() {
                continue;
            }
            progressed = true;
            let mut cx = Context::from_waker(&task.waker);
            if let Poll::Ready(v) = task.fut.as_mut().poll(&mut cx) {
                task.out = Some(v);
                remaining -= 1;
            }
        }
        if remaining > 0 && !progressed {
            // Nothing was ready; sleep until some waker unparks us.
            // A wake that lands between the scan and this park just
            // turns the park into a no-op (the unpark token persists).
            std::thread::park();
        }
    }
    tasks
        .into_iter()
        .map(|t| t.out.expect("all tasks completed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_on_ready_future() {
        assert_eq!(block_on(async { 41 + 1 }), 42);
    }

    /// Whether `cx` carries the no-op waker. Its data pointer is null,
    /// while a parking waker's points at its `Arc` (comparing vtables
    /// is not reliable: a `const` vtable may be duplicated).
    fn is_noop(cx: &Context<'_>) -> bool {
        cx.waker().data().is_null()
    }

    /// A future ready on its first poll is polled exactly once, with
    /// the no-op waker: no parking waker is built for it.
    #[test]
    fn block_on_polls_a_ready_future_once_with_the_noop_waker() {
        let mut polls = 0;
        let got = block_on(std::future::poll_fn(|cx| {
            polls += 1;
            assert!(is_noop(cx));
            Poll::Ready(7)
        }));
        assert_eq!((got, polls), (7, 1));
    }

    /// A future pending on its first poll is re-polled with the
    /// parking waker before the thread parks, so a waker it registered
    /// on the first poll is replaced, not relied on.
    #[test]
    fn block_on_repolls_a_pending_future_with_the_parking_waker() {
        let mut polls = 0;
        let got = block_on(std::future::poll_fn(|cx| {
            polls += 1;
            if is_noop(cx) {
                Poll::Pending
            } else {
                Poll::Ready(polls)
            }
        }));
        assert_eq!(got, 2);
    }

    #[test]
    fn block_on_crosses_threads() {
        struct Chan {
            val: std::sync::Mutex<Option<u32>>,
            waker: std::sync::Mutex<Option<Waker>>,
        }
        let chan = Arc::new(Chan {
            val: std::sync::Mutex::new(None),
            waker: std::sync::Mutex::new(None),
        });
        let c2 = Arc::clone(&chan);
        let t = std::thread::spawn(move || {
            *c2.val.lock().unwrap() = Some(7);
            if let Some(w) = c2.waker.lock().unwrap().take() {
                w.wake();
            }
        });
        let got = block_on(std::future::poll_fn(move |cx| {
            if let Some(v) = *chan.val.lock().unwrap() {
                return Poll::Ready(v);
            }
            *chan.waker.lock().unwrap() = Some(cx.waker().clone());
            if let Some(v) = *chan.val.lock().unwrap() {
                return Poll::Ready(v);
            }
            Poll::Pending
        }));
        t.join().unwrap();
        assert_eq!(got, 7);
    }

    #[test]
    fn run_all_preserves_order_and_interleaves() {
        let futs: Vec<Pin<Box<dyn Future<Output = usize> + Send>>> = (0..10usize)
            .map(|i| {
                let mut yields = i % 3;
                Box::pin(std::future::poll_fn(move |cx| {
                    if yields == 0 {
                        Poll::Ready(i)
                    } else {
                        yields -= 1;
                        cx.waker().wake_by_ref();
                        Poll::Pending
                    }
                })) as Pin<Box<dyn Future<Output = usize> + Send>>
            })
            .collect();
        let out = run_all(futs);
        assert_eq!(out, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn run_all_empty_is_empty() {
        let out: Vec<u8> = run_all(Vec::new());
        assert!(out.is_empty());
    }
}
