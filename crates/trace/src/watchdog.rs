//! The stall watchdog: heartbeats, an epoch-advance monitor, and a
//! monitor thread that trips the flight recorder.
//!
//! Lock-freedom guarantees *some* thread progresses, not *every*
//! thread: an individual op can be starved through an unbounded
//! CAS-fail/backlink cascade, a worker can be wedged by a bug or a
//! blocked callback, and reclamation can stall if a pinned thread
//! never quiesces (memory then grows without bound — the e6 failure
//! mode). The watchdog detects all three *from the outside*:
//!
//! * **stuck worker / runaway retry loop** — each worker owns a
//!   [`Heartbeat`] and bumps it whenever it makes observable progress
//!   (batch drained, op applied). A heartbeat that is `busy` but has
//!   not beaten for the configured deadline trips the watchdog. A
//!   runaway retry loop that never completes its op keeps `busy`
//!   without beating, so it is caught by the same rule.
//! * **reclamation stall** — nodes keep being retired while the global
//!   epoch stays put (sampled from [`crate::retires`] /
//!   [`crate::epoch_advances`], which advance regardless of the event
//!   tracing toggle).
//!
//! On a trip the monitor writes a flight-recorder dump (see
//! [`crate::recorder`]) to the configured path and invokes the
//! `on_trip` callback with a [`StallReport`]. The monitor thread also
//! services `SIGUSR1` dump requests, so one thread owns all black-box
//! I/O.
//!
//! The monitor paces itself with `Condvar::wait_timeout` (never
//! `thread::sleep`) so [`Watchdog::stop`] takes effect immediately.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, Weak};
use std::time::{Duration, Instant};

/// A worker's progress pulse. Cheap enough to bump per batch item:
/// two relaxed atomic ops.
#[derive(Debug)]
pub struct Heartbeat {
    /// What to call this worker in stall reports (e.g. `"lane-0"`).
    label: String,
    /// Progress counter; any bump proves liveness.
    beats: AtomicU64,
    /// Whether the worker is between `busy()` and `idle()`. Only busy
    /// workers are expected to beat — a parked worker is silent and
    /// healthy.
    busy: AtomicBool,
}

impl Heartbeat {
    fn new(label: String) -> Self {
        Heartbeat {
            label,
            beats: AtomicU64::new(0),
            busy: AtomicBool::new(false),
        }
    }

    /// The label supplied at registration.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Mark the worker busy (about to process work). Busy workers must
    /// [`beat`](Heartbeat::beat) within the deadline or the watchdog
    /// trips.
    #[inline]
    pub fn busy(&self) {
        // ord: Relaxed — TRACE.hb: liveness pulse; the monitor samples racy-fresh values
        self.busy.store(true, Ordering::Relaxed);
        // ord: Relaxed — TRACE.hb: liveness pulse; the monitor samples racy-fresh values
        self.beats.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one unit of observable progress.
    #[inline]
    pub fn beat(&self) {
        // ord: Relaxed — TRACE.hb: liveness pulse; the monitor samples racy-fresh values
        self.beats.fetch_add(1, Ordering::Relaxed);
    }

    /// Mark the worker idle (parked / between batches): silence is now
    /// healthy.
    #[inline]
    pub fn idle(&self) {
        // ord: Relaxed — TRACE.hb: liveness pulse; the monitor samples racy-fresh values
        self.busy.store(false, Ordering::Relaxed);
        // ord: Relaxed — TRACE.hb: liveness pulse; the monitor samples racy-fresh values
        self.beats.fetch_add(1, Ordering::Relaxed);
    }

    fn sample(&self) -> (u64, bool) {
        // ord: Relaxed — TRACE.hb: liveness pulse; the monitor samples racy-fresh values
        let beats = self.beats.load(Ordering::Relaxed);
        // ord: Relaxed — TRACE.hb: liveness pulse; the monitor samples racy-fresh values
        let busy = self.busy.load(Ordering::Relaxed);
        (beats, busy)
    }
}

/// Which liveness property was violated.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StallKind {
    /// A busy worker stopped beating for the whole deadline.
    Heartbeat,
    /// Retires kept accumulating while the global epoch stayed put.
    Reclamation,
}

/// What the watchdog saw when it tripped.
#[derive(Clone, Debug)]
pub struct StallReport {
    /// Violated property.
    pub kind: StallKind,
    /// Offending worker's label ([`StallKind::Heartbeat`]) or
    /// `"epoch"` ([`StallKind::Reclamation`]).
    pub label: String,
    /// How long the property had been violated when detected.
    pub stalled_for: Duration,
    /// Where the flight-recorder dump went, if a sink was configured
    /// and the write succeeded.
    pub dump: Option<PathBuf>,
    /// Events in the dump (0 when no sink or tracing never enabled).
    pub dump_events: usize,
}

/// Watchdog tuning. `Default` is production-shaped: 1 s deadline,
/// dump sink from `LF_TRACE_DUMP`.
pub struct Config {
    /// How long a busy worker may go without beating (and the epoch
    /// without advancing under retire pressure) before tripping.
    pub deadline: Duration,
    /// Monitor poll cadence. Detection latency is `deadline + poll` in
    /// the worst case. Defaults to `deadline / 4` (min 10 ms).
    pub poll: Option<Duration>,
    /// Flight-recorder sink; `None` falls back to the `LF_TRACE_DUMP`
    /// environment variable, and if that is unset too, trips are
    /// reported (callback + counters) without writing a dump.
    pub dump_path: Option<PathBuf>,
    /// Invoked on the monitor thread for every trip.
    #[allow(clippy::type_complexity)]
    pub on_trip: Option<Box<dyn Fn(&StallReport) + Send>>,
    /// Also install the `SIGUSR1` handler so operators can demand a
    /// dump from a live process.
    pub install_sigusr1: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            deadline: Duration::from_secs(1),
            poll: None,
            dump_path: None,
            on_trip: None,
            install_sigusr1: false,
        }
    }
}

/// State shared between handles and the monitor thread.
struct Shared {
    hearts: Mutex<Vec<Weak<Heartbeat>>>,
    stop: Mutex<bool>,
    wake: Condvar,
    /// Total trips since start (monotone; tests poll it).
    trips: AtomicU64,
    last: Mutex<Option<StallReport>>,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The stall watchdog: owns the monitor thread.
///
/// Dropping (or [`stop`](Watchdog::stop)ping) the watchdog shuts the
/// monitor down promptly; registered [`Heartbeat`]s outlive it
/// harmlessly (they become unobserved counters).
pub struct Watchdog {
    shared: Arc<Shared>,
    monitor: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    /// Start a monitor thread with the given tuning.
    pub fn start(cfg: Config) -> Watchdog {
        if cfg.install_sigusr1 {
            crate::recorder::install_sigusr1();
        }
        let shared = Arc::new(Shared {
            hearts: Mutex::new(Vec::new()),
            stop: Mutex::new(false),
            wake: Condvar::new(),
            trips: AtomicU64::new(0),
            last: Mutex::new(None),
        });
        // The reclamation baseline is taken here, not on the monitor
        // thread: a retire backlog that builds between `start` and the
        // monitor's first poll must still count as pressure.
        let baseline = (crate::epoch_advances(), crate::retires(), Instant::now());
        let monitor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("lf-trace-watchdog".into())
                .spawn(move || monitor_loop(&shared, cfg, baseline))
                .expect("spawn watchdog monitor")
        };
        Watchdog {
            shared,
            monitor: Some(monitor),
        }
    }

    /// Register a worker under `label`; the worker keeps the returned
    /// [`Heartbeat`] and drives `busy`/`beat`/`idle`. The watchdog
    /// holds only a weak reference, so dropping the heartbeat
    /// unregisters the worker.
    pub fn register(&self, label: &str) -> Arc<Heartbeat> {
        let hb = Arc::new(Heartbeat::new(label.to_string()));
        lock(&self.shared.hearts).push(Arc::downgrade(&hb));
        hb
    }

    /// Trips observed so far.
    pub fn trips(&self) -> u64 {
        // ord: Relaxed — TRACE.hb: liveness pulse; the monitor samples racy-fresh values
        self.shared.trips.load(Ordering::Relaxed)
    }

    /// The most recent stall report, if any.
    pub fn last_report(&self) -> Option<StallReport> {
        lock(&self.shared.last).clone()
    }

    /// Stop the monitor thread and wait for it to exit.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        *lock(&self.shared.stop) = true;
        self.shared.wake.notify_all();
        if let Some(h) = self.monitor.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Per-heartbeat tracking the monitor keeps between polls.
struct Watched {
    hb: Weak<Heartbeat>,
    last_beats: u64,
    /// When `beats` last changed (or the worker was last idle).
    since: Instant,
    /// Suppress duplicate trips until the worker beats again.
    reported: bool,
}

/// `baseline` is `(epoch_advances(), retires(), now)` as of
/// [`Watchdog::start`].
fn monitor_loop(shared: &Shared, cfg: Config, baseline: (u64, u64, Instant)) {
    let poll = cfg
        .poll
        .unwrap_or_else(|| (cfg.deadline / 4).max(Duration::from_millis(10)));
    let mut watched: Vec<Watched> = Vec::new();
    // Epoch-advance tracking: `epoch_since` is when `epoch_advances()`
    // last changed; `retires_then` is the retire count at that moment.
    let (mut epoch_seen, mut retires_then, mut epoch_since) = baseline;
    let mut epoch_reported = false;

    loop {
        {
            let stopped = lock(&shared.stop);
            if *stopped {
                return;
            }
            let (stopped, _) = shared
                .wake
                .wait_timeout(stopped, poll)
                .unwrap_or_else(PoisonError::into_inner);
            if *stopped {
                return;
            }
        }
        let now = Instant::now();

        // Operator-requested dump (SIGUSR1 or recorder::request_dump).
        if crate::recorder::take_dump_request() {
            let sink = cfg
                .dump_path
                .clone()
                .or_else(crate::recorder::env_dump_path);
            if let Some(path) = sink {
                let _ = crate::recorder::dump_to_path(&path, "sigusr1");
            }
        }

        // Sync the watch list with the registry (new registrations
        // appended; dropped heartbeats pruned on both sides).
        {
            let mut hearts = lock(&shared.hearts);
            hearts.retain(|w| w.strong_count() > 0);
            for w in hearts.iter() {
                let fresh = !watched.iter().any(|x| Weak::ptr_eq(&x.hb, w));
                if fresh {
                    let last_beats = w.upgrade().map(|h| h.sample().0).unwrap_or(0);
                    watched.push(Watched {
                        hb: w.clone(),
                        last_beats,
                        since: now,
                        reported: false,
                    });
                }
            }
        }
        watched.retain(|x| x.hb.strong_count() > 0);

        for w in watched.iter_mut() {
            let Some(hb) = w.hb.upgrade() else { continue };
            let (beats, busy) = hb.sample();
            if beats != w.last_beats || !busy {
                w.last_beats = beats;
                w.since = now;
                w.reported = false;
                continue;
            }
            let stalled_for = now.duration_since(w.since);
            if !w.reported && stalled_for >= cfg.deadline {
                w.reported = true;
                trip(shared, &cfg, StallKind::Heartbeat, hb.label(), stalled_for);
            }
        }

        // Reclamation stall: the epoch is static while retire pressure
        // keeps building.
        let advances = crate::epoch_advances();
        let retires = crate::retires();
        if advances != epoch_seen {
            epoch_seen = advances;
            epoch_since = now;
            retires_then = retires;
            epoch_reported = false;
        } else if !epoch_reported
            && retires > retires_then
            && now.duration_since(epoch_since) >= cfg.deadline
        {
            epoch_reported = true;
            trip(
                shared,
                &cfg,
                StallKind::Reclamation,
                "epoch",
                now.duration_since(epoch_since),
            );
        }
    }
}

fn trip(shared: &Shared, cfg: &Config, kind: StallKind, label: &str, stalled_for: Duration) {
    let sink = cfg
        .dump_path
        .clone()
        .or_else(crate::recorder::env_dump_path);
    let mut report = StallReport {
        kind,
        label: label.to_string(),
        stalled_for,
        dump: None,
        dump_events: 0,
    };
    if let Some(path) = sink {
        if let Ok(n) = crate::recorder::dump_to_path(&path, "watchdog") {
            report.dump_events = n;
            report.dump = Some(path);
        }
    }
    // ord: Relaxed — TRACE.hb: liveness pulse; the monitor samples racy-fresh values
    shared.trips.fetch_add(1, Ordering::Relaxed);
    if let Some(cb) = &cfg.on_trip {
        cb(&report);
    }
    *lock(&shared.last) = Some(report);
}
