//! The adaptive batch admission controller.
//!
//! Admission control here is *batch sizing*, not a separate token
//! bucket: each lane worker drains up to `batch_max` requests under one
//! amortized epoch pin, so a larger batch raises service throughput
//! (fewer pins and parks per request) at the cost of latency coupling —
//! every request in a batch waits for the whole drain. The controller
//! closes the loop on both signals:
//!
//! * **Grow** — when the tick window shows *admission pressure* for
//!   [`sustain_ticks`](ControllerConfig::sustain_ticks) consecutive
//!   ticks, every lane doubles its `batch_max` (clamped by the service
//!   to queue capacity): the service is throughput-bound, so amortize
//!   harder. Pressure is read from the windowed snapshot delta, not a
//!   point sample: any `Shed`/`Reject` refusal in the window, or a
//!   windowed enqueue-time depth p99 at or above
//!   [`high_occupancy`](ControllerConfig::high_occupancy) of capacity.
//!   Depth and capacity count ring slots, and a connection's pipeline
//!   takes one slot per lane it touches, so occupancy is counted in
//!   pipelines, not commands. (A pipelining front end fills the rings
//!   in microsecond bursts that drain before any plausible tick could
//!   observe them — point-sampled occupancy reads a loaded server as
//!   idle.)
//! * **Shrink** — when the *windowed* admitted enqueue-to-complete p99
//!   (the delta between consecutive [`ServiceSnapshot`] histograms, so
//!   old samples cannot mask fresh pain) exceeds
//!   [`target_p99_ns`](ControllerConfig::target_p99_ns), every lane's
//!   `batch_max` halves: latency is the binding constraint, stop
//!   coupling requests together.
//!
//! Shrink wins over grow in the same tick. Decisions and the measured
//! p99 land in [`ServerMetrics`](crate::ServerMetrics), so `INFO` and
//! the exporters show the controller's state live, and overload shows
//! up as protocol-visible `-BUSY` errors (Shed/Reject) rather than
//! queue collapse.
//!
//! The loop paces itself on a `Condvar` timeout (never a sleep), and
//! the worker picks up each retune at its next drain — see the
//! `ASYNC.batch` row in DESIGN.md §9.5.

use std::sync::Arc;
use std::time::Duration;

use lf_async::{AsyncBackend, Service};

use crate::metrics::ServerMetrics;
use crate::server::StopSignal;

/// Tuning for the adaptive batch controller.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Time between control ticks.
    pub interval: Duration,
    /// Windowed admitted enqueue-to-complete p99 above which every
    /// lane's `batch_max` halves.
    pub target_p99_ns: u64,
    /// Fraction of queue capacity the windowed enqueue-time depth p99
    /// must reach for a tick to count as pressured (any refusal in the
    /// window also counts).
    pub high_occupancy: f64,
    /// Consecutive pressured ticks before growing.
    pub sustain_ticks: u32,
    /// Floor for `batch_max` (the service additionally clamps to
    /// `1 ..= queue_capacity`).
    pub min_batch: usize,
    /// Ceiling for `batch_max` (likewise clamped by the service).
    pub max_batch: usize,
    /// Minimum completions inside a window before its p99 is trusted;
    /// thinner windows are noise, not signal.
    pub min_window_samples: u64,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            // Reaction time is `sustain_ticks * interval` (30 ms to a
            // grow). Ticking much faster buys nothing — each tick
            // snapshots service metrics and preempts a worker on small
            // machines.
            interval: Duration::from_millis(10),
            target_p99_ns: 3_000_000,
            high_occupancy: 0.5,
            sustain_ticks: 3,
            min_batch: 1,
            max_batch: usize::MAX,
            min_window_samples: 64,
        }
    }
}

/// Handle to the running controller thread; stopped and joined by
/// [`Server::stop`](crate::Server::stop) via the shared [`StopSignal`].
pub(crate) struct Controller {
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Controller {
    /// Spawn the control loop. It exits when `stop` is set.
    pub(crate) fn spawn<B>(
        service: Arc<Service<B>>,
        metrics: Arc<ServerMetrics>,
        stop: Arc<StopSignal>,
        cfg: ControllerConfig,
    ) -> Controller
    where
        B: AsyncBackend,
    {
        let thread = std::thread::Builder::new()
            .name("lf-server-controller".into())
            .spawn(move || control_loop(&service, &metrics, &stop, &cfg))
            .expect("spawn admission controller");
        Controller {
            thread: Some(thread),
        }
    }

    /// Join the control thread (the caller has already set the stop
    /// signal).
    pub(crate) fn join(mut self) {
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn control_loop<B: AsyncBackend>(
    service: &Service<B>,
    metrics: &ServerMetrics,
    stop: &StopSignal,
    cfg: &ControllerConfig,
) {
    let lanes = service.lane_count();
    let capacity = service.queue_capacity().max(1) as f64;
    let mut sustain = 0u32;
    let mut prev = service.metrics();
    while !stop.is_set() {
        stop.wait_timeout(cfg.interval);
        if stop.is_set() {
            break;
        }
        let snap = service.metrics();
        // Windowed deltas: only activity since the last tick counts, so
        // a calm hour of history cannot hide a hot millisecond — and a
        // microsecond burst cannot hide from a millisecond tick.
        let w_e2c = snap.enqueue_to_complete_ns.clone() - prev.enqueue_to_complete_ns.clone();
        let w_depth = snap.queue_depth.clone() - prev.queue_depth.clone();
        let w_refused = (snap.rejected + snap.shed) - (prev.rejected + prev.shed);
        prev = snap;
        let p99 = (w_e2c.count() >= cfg.min_window_samples).then(|| w_e2c.p99());
        if let Some(p) = p99 {
            metrics.record_ctl_p99(p);
        }
        if p99.is_some_and(|p| p > cfg.target_p99_ns) {
            // Latency violation: back off everywhere and restart the
            // pressure clock — growth must be re-earned.
            sustain = 0;
            let mut shrank = false;
            for lane in 0..lanes {
                let cur = service.batch_max(lane);
                let next = (cur / 2).max(cfg.min_batch);
                if next < cur {
                    service.set_batch_max(lane, next);
                    shrank = true;
                }
            }
            if shrank {
                metrics.record_ctl_shrink();
            }
            continue;
        }
        let deep = w_depth.count() > 0 && w_depth.p99() as f64 >= cfg.high_occupancy * capacity;
        if w_refused > 0 || deep {
            sustain += 1;
            if sustain >= cfg.sustain_ticks {
                sustain = 0;
                let mut grew = false;
                for lane in 0..lanes {
                    let cur = service.batch_max(lane);
                    let next = cur.saturating_mul(2).min(cfg.max_batch);
                    if service.set_batch_max(lane, next) > cur {
                        grew = true;
                    }
                }
                if grew {
                    metrics.record_ctl_grow();
                }
            }
        } else {
            sustain = 0;
        }
    }
}
