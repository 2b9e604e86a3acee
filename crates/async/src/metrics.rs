//! Service-level metrics: counters plus shared multi-writer histograms,
//! exported through `lf-metrics`' JSON and Prometheus formatters.
//!
//! Unlike the per-op structure metrics (which keep flowing through
//! `lf-metrics`' thread-sharded registry from inside `lf-core`), these
//! observe the *service* layer: how deep lanes run, how large drained
//! batches are, and how long a request sits between enqueue and
//! completion. Producers and workers on arbitrary threads record into
//! one [`AtomicHistogram`] per series via its `fetch_add` path.

use std::sync::atomic::{AtomicU64, Ordering};

use lf_metrics::export::{histogram_json, histogram_prometheus, JsonObj};
use lf_metrics::{AtomicHistogram, Histogram};
use lf_tagged::CachePadded;

/// What submitting threads write, once per request.
#[derive(Default)]
struct ByProducers {
    enqueued: AtomicU64,
    inline: AtomicU64,
    queue_depth: AtomicHistogram,
}

/// What lane workers write, once per request or batch.
#[derive(Default)]
struct ByWorkers {
    completed: AtomicU64,
    batch_size: AtomicHistogram,
    enqueue_to_complete_ns: AtomicHistogram,
}

/// Live service counters and histograms. One per service; shared by
/// every producer and worker.
///
/// Fields are grouped by who writes them and each group padded to its
/// own cache lines: every request bumps `enqueued` on its submitting
/// thread and `completed` on its lane worker, and side by side those
/// two would bounce one line between the two threads per request.
pub struct ServiceMetrics {
    producers: CachePadded<ByProducers>,
    workers: CachePadded<ByWorkers>,
    // The rare outcomes; whoever hits one writes it.
    rejected: AtomicU64,
    shed: AtomicU64,
    shutdown_dropped: AtomicU64,
}

impl ServiceMetrics {
    pub(crate) fn new() -> Self {
        ServiceMetrics {
            producers: CachePadded::default(),
            workers: CachePadded::default(),
            rejected: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            shutdown_dropped: AtomicU64::new(0),
        }
    }

    /// A cell of `n` requests was queued; `depth` is the lane depth (in
    /// ring slots) after the push.
    pub(crate) fn record_enqueue(&self, n: usize, depth: u64) {
        // ord: Relaxed — ASYNC.stat: statistic counter, snapshots racy-fresh
        self.producers
            .enqueued
            .fetch_add(n as u64, Ordering::Relaxed);
        self.producers.queue_depth.record(depth);
    }

    /// A cell of `n` requests executed; `e2c_ns` is its
    /// enqueue-to-complete latency, which every one of them shares.
    pub(crate) fn record_complete(&self, n: usize, e2c_ns: u64) {
        // ord: Relaxed — ASYNC.stat: statistic counter, snapshots racy-fresh
        self.workers
            .completed
            .fetch_add(n as u64, Ordering::Relaxed);
        self.workers
            .enqueue_to_complete_ns
            .record_n(e2c_ns, n as u64);
    }

    /// A worker drained a batch of `n` requests.
    pub(crate) fn record_batch(&self, n: usize) {
        self.workers.batch_size.record(n as u64);
    }

    /// A leg of `n` requests ran on its submitting thread, `e2c_ns`
    /// from start to finish. It counts as a cell enqueued, drained as
    /// one batch and completed, minus the depth sample: it never took
    /// a ring slot.
    pub(crate) fn record_inline(&self, n: usize, e2c_ns: u64) {
        // ord: Relaxed — ASYNC.stat: statistic counter, snapshots racy-fresh
        self.producers
            .enqueued
            .fetch_add(n as u64, Ordering::Relaxed);
        // ord: Relaxed — ASYNC.stat: statistic counter, snapshots racy-fresh
        self.producers.inline.fetch_add(n as u64, Ordering::Relaxed);
        self.record_batch(n);
        self.record_complete(n, e2c_ns);
    }

    /// A cell of `n` requests bounced off a full lane under `Reject`.
    pub(crate) fn record_reject(&self, n: usize) {
        // ord: Relaxed — ASYNC.stat: statistic counter, snapshots racy-fresh
        self.rejected.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// A queued cell of `n` requests was evicted under `Shed`.
    pub(crate) fn record_shed(&self, n: usize) {
        // ord: Relaxed — ASYNC.stat: statistic counter, snapshots racy-fresh
        self.shed.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// A queued cell of `n` requests was resolved with `Error::Shutdown`.
    pub(crate) fn record_shutdown_drop(&self, n: usize) {
        // ord: Relaxed — ASYNC.stat: statistic counter, snapshots racy-fresh
        self.shutdown_dropped.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// A racy-fresh copy of every series.
    pub fn snapshot(&self) -> ServiceSnapshot {
        ServiceSnapshot {
            // ord: Relaxed — ASYNC.stat: statistic counter, snapshots racy-fresh
            enqueued: self.producers.enqueued.load(Ordering::Relaxed),
            // ord: Relaxed — ASYNC.stat: statistic counter, snapshots racy-fresh
            inline: self.producers.inline.load(Ordering::Relaxed),
            // ord: Relaxed — ASYNC.stat: statistic counter, snapshots racy-fresh
            completed: self.workers.completed.load(Ordering::Relaxed),
            // ord: Relaxed — ASYNC.stat: statistic counter, snapshots racy-fresh
            rejected: self.rejected.load(Ordering::Relaxed),
            // ord: Relaxed — ASYNC.stat: statistic counter, snapshots racy-fresh
            shed: self.shed.load(Ordering::Relaxed),
            // ord: Relaxed — ASYNC.stat: statistic counter, snapshots racy-fresh
            shutdown_dropped: self.shutdown_dropped.load(Ordering::Relaxed),
            queue_depth: self.producers.queue_depth.load(),
            batch_size: self.workers.batch_size.load(),
            enqueue_to_complete_ns: self.workers.enqueue_to_complete_ns.load(),
        }
    }
}

/// A point-in-time copy of the service metrics (exact once the service
/// has shut down; racy-fresh while it is live).
///
/// Counters count *requests*, whatever cell carried them: a cell of a
/// batch adds its request count to `enqueued` and `completed` (or to
/// `rejected` / `shed` / `shutdown_dropped` when refused), so
/// `enqueued == completed + shed + shutdown_dropped` stays exact.
/// `queue_depth` counts ring slots, i.e. cells. A leg run on its
/// submitting thread ([`Service::batch_on`](crate::Service::batch_on))
/// counts in `enqueued`, `completed`, `batch_size` and
/// `enqueue_to_complete_ns` as a drained cell would, takes no
/// `queue_depth` sample, and also counts in `inline`.
pub struct ServiceSnapshot {
    /// Requests accepted into a lane queue, or run inline.
    pub enqueued: u64,
    /// Of `enqueued`, the requests run on their submitting thread
    /// because their lane was idle.
    pub inline: u64,
    /// Requests executed against the backend.
    pub completed: u64,
    /// Requests refused at a full lane (`Reject`).
    pub rejected: u64,
    /// Queued requests evicted by newer arrivals (`Shed`).
    pub shed: u64,
    /// Queued requests resolved with `Error::Shutdown`.
    pub shutdown_dropped: u64,
    /// Lane depth, in ring slots, observed at each enqueue.
    pub queue_depth: Histogram,
    /// Requests per drained batch.
    pub batch_size: Histogram,
    /// Nanoseconds from enqueue to completion, one sample per request
    /// (a cell's requests share its latency).
    pub enqueue_to_complete_ns: Histogram,
}

impl ServiceSnapshot {
    /// One JSON object: scalar counters plus a nested object per
    /// histogram (same shape as the bench artifacts).
    pub fn to_json(&self) -> String {
        JsonObj::new()
            .field_u64("enqueued", self.enqueued)
            .field_u64("inline", self.inline)
            .field_u64("completed", self.completed)
            .field_u64("rejected", self.rejected)
            .field_u64("shed", self.shed)
            .field_u64("shutdown_dropped", self.shutdown_dropped)
            .field_raw("queue_depth", &histogram_json(&self.queue_depth))
            .field_raw("batch_size", &histogram_json(&self.batch_size))
            .field_raw(
                "enqueue_to_complete_ns",
                &histogram_json(&self.enqueue_to_complete_ns),
            )
            .finish()
    }

    /// Prometheus text exposition: `lf_async_*_total` counters plus a
    /// `summary` per histogram.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, help, v) in [
            (
                "lf_async_enqueued_total",
                "Requests accepted into lane queues",
                self.enqueued,
            ),
            (
                "lf_async_inline_total",
                "Requests run on their submitting thread while their lane was idle",
                self.inline,
            ),
            (
                "lf_async_completed_total",
                "Requests executed against the backend",
                self.completed,
            ),
            (
                "lf_async_rejected_total",
                "Requests refused at a full lane (Reject policy)",
                self.rejected,
            ),
            (
                "lf_async_shed_total",
                "Queued requests evicted by newer arrivals (Shed policy)",
                self.shed,
            ),
            (
                "lf_async_shutdown_dropped_total",
                "Queued requests resolved with Error::Shutdown",
                self.shutdown_dropped,
            ),
        ] {
            use std::fmt::Write;
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {v}");
        }
        histogram_prometheus(
            &mut out,
            "lf_async_queue_depth",
            "Lane depth observed at enqueue",
            &self.queue_depth,
        );
        histogram_prometheus(
            &mut out,
            "lf_async_batch_size",
            "Requests per drained batch",
            &self.batch_size,
        );
        histogram_prometheus(
            &mut out,
            "lf_async_enqueue_to_complete_ns",
            "Nanoseconds from enqueue to completion",
            &self.enqueue_to_complete_ns,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_records() {
        let m = ServiceMetrics::new();
        m.record_enqueue(1, 3);
        m.record_enqueue(4, 5);
        m.record_complete(4, 1_000);
        m.record_batch(2);
        m.record_reject(2);
        m.record_shed(3);
        m.record_shutdown_drop(1);
        m.record_inline(3, 100);
        let s = m.snapshot();
        // Requests, not cells: a four-request cell counts four, and an
        // inline leg counts as enqueued and completed too.
        assert_eq!(s.enqueued, 8);
        assert_eq!(s.inline, 3);
        assert_eq!(s.completed, 7);
        assert_eq!(s.rejected, 2);
        assert_eq!(s.shed, 3);
        assert_eq!(s.shutdown_dropped, 1);
        // Depth is sampled once per pushed cell, never for inline legs.
        assert_eq!(s.queue_depth.count(), 2);
        assert_eq!(s.batch_size.count(), 2);
        // One latency per cell or leg, weighted by its requests.
        assert_eq!(s.enqueue_to_complete_ns.count(), 7);
        assert_eq!(s.enqueue_to_complete_ns.sum(), 4_300);
    }

    #[test]
    fn exports_are_well_formed() {
        let m = ServiceMetrics::new();
        m.record_enqueue(1, 1);
        m.record_complete(1, 500);
        m.record_inline(2, 300);
        let s = m.snapshot();
        let j = s.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"enqueue_to_complete_ns\""));
        assert!(j.contains("\"inline\":2"));
        let p = s.to_prometheus();
        assert!(p.contains("lf_async_enqueued_total 3"));
        assert!(p.contains("lf_async_inline_total 2"));
        assert!(p.contains("lf_async_enqueue_to_complete_ns{quantile=\"0.5\"}"));
    }
}
