//! Async serving façade over the Fomitchev–Ruppert structures.
//!
//! `lf-core`'s handles are synchronous and deliberately not `Send`:
//! they own an epoch-collector registration whose amortized
//! announcement must stay on one thread. Request-per-task runtimes
//! want the opposite — cheap `Send` futures that can migrate executor
//! threads between polls. This crate bridges the two with a
//! *submission service*:
//!
//! * [`Service`] fronts any [`AsyncBackend`] — every `lf-core`
//!   [`ConcurrentMap`](lf_core::ConcurrentMap) whose keys and values can
//!   cross threads — and exposes `get`/`insert`/`remove`/`contains`
//!   as [`OpFuture`]s that are `Send` and hold **no epoch guard across
//!   any `.await`** — the pin-per-poll invariant (DESIGN.md §10).
//!   Futures are pure completion-waiters; structure access happens on
//!   whichever thread holds a lane's executor token.
//! * Each worker owns one **sharded MPSC submission lane**: a
//!   `CachePadded`, sequence-numbered bounded ring. Workers drain up
//!   to `batch_max` requests at a time and execute them through a
//!   thread-local handle whose epoch announcement is amortized across
//!   the whole batch — one pin per drained batch, preserving the
//!   paper's amortized `O(n(S) + c(S))` per request.
//! * [`Service::batch`] submits many requests as one cell per lane
//!   touched — one ring slot, one completion, one wake-up — resolving
//!   to their outcomes in input order; a single-request future is the
//!   batch of one. [`Service::batch_on`] is the same batch from a
//!   thread with its own [`Service::handle`]: a leg whose lane is idle
//!   (nothing queued; a token another caller's inline leg holds is
//!   waited for briefly) runs right there, under the lane's executor
//!   token, and never touches the ring.
//! * Full lanes apply a configurable [`BackpressurePolicy`]: `Block`
//!   (suspend the submitter), `Reject` (fail fast), or `Shed` (evict
//!   the oldest queued request).
//! * [`Service::shutdown`] drains in-flight batches, resolves
//!   everything still queued with [`Error::Shutdown`], quiesces the
//!   epoch domain, and joins the workers. It is idempotent and also
//!   runs on drop.
//! * [`Service::metrics`] exposes queue-depth, batch-size, and
//!   enqueue-to-complete latency histograms through `lf-metrics`'
//!   JSON/Prometheus exporters.
//!
//! The crate is runtime-agnostic: futures work under any executor
//! (`lf-sched`'s hand-rolled `rt::block_on` is enough — no tokio).
//!
//! # Example
//!
//! ```
//! use lf_async::{Response, ServiceBuilder};
//! use lf_core::FrList;
//! use lf_sched::rt;
//!
//! let service = ServiceBuilder::new().workers(1).build(FrList::<u64, u64>::new());
//! rt::block_on(async {
//!     assert_eq!(service.insert(1, 10).await, Ok(Response::Inserted(true)));
//!     assert_eq!(service.get(1).await, Ok(Response::Value(Some(10))));
//!     assert_eq!(service.remove(1).await, Ok(Response::Removed(Some(10))));
//! });
//! service.shutdown();
//! ```

mod backend;
pub mod metrics;
mod op;
mod ring;
mod service;

pub use backend::{AsyncBackend, BackendHandle};
pub use metrics::{ServiceMetrics, ServiceSnapshot};
pub use op::{Error, GetWithVisitor, Request, Response, ScanVisitor};
pub use service::{
    install_stall_hook, AsyncHashMap, AsyncList, AsyncShardedMap, AsyncSkipList,
    BackpressurePolicy, BatchFuture, GetWithFuture, LaneFuture, OpFuture, ScanFuture, Service,
    ServiceBuilder,
};
