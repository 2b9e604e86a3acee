//! Multi-threaded workload runner with step-metric capture.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use lf_core::{ConcurrentMap, MapHandle};
use lf_workloads::{KeyDist, Mix, Op, OpKind, WorkloadIter};

/// Parameters of one measured run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Worker thread count.
    pub threads: usize,
    /// Operations per thread.
    pub ops_per_thread: u64,
    /// Operation mix.
    pub mix: Mix,
    /// Key distribution.
    pub dist: KeyDist,
    /// Base RNG seed (each thread derives its own).
    pub seed: u64,
    /// Keys inserted before the measured phase (every other key of the
    /// space, up to this count) so the structure starts at steady size.
    pub prefill: u64,
}

/// Outcome of one measured run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Total completed operations.
    pub ops: u64,
    /// Wall-clock time of the measured phase.
    pub elapsed: Duration,
    /// Essential-step delta for the measured phase (all threads).
    pub metrics: lf_metrics::Snapshot,
    /// Full telemetry delta (scalar counters plus latency / retry /
    /// backlink / hop distributions) for the measured phase.
    pub telemetry: lf_metrics::Telemetry,
    /// Peak unreclaimed objects in the map's reclamation domain over
    /// the whole run (prefill included); [`run_mixed`] leaves it `None`
    /// for the caller that knows the map's domain to fill in.
    pub peak_unreclaimed: Option<u64>,
}

impl RunResult {
    /// Operations per second.
    pub fn throughput(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Essential steps per operation.
    pub fn steps_per_op(&self) -> f64 {
        self.metrics.essential_steps() as f64 / self.ops.max(1) as f64
    }
}

/// Key space implied by a distribution.
fn space_of(dist: &KeyDist) -> u64 {
    match dist {
        KeyDist::Uniform { space } => *space,
        KeyDist::Zipfian { space, .. } => *space,
        KeyDist::Tail { space, .. } => *space,
        KeyDist::Sequential { space } => *space,
    }
}

/// The lookup every run uses unless it measures another entry point
/// (E14/E15 pass the pin-free `try_read`): the key's presence, seen
/// through [`MapHandle::get_with`] without cloning.
pub fn lookup<H: MapHandle<u64, u64>>(h: &H, k: u64) -> bool {
    h.get_with(&k, |_| ()).is_some()
}

/// Apply one generated operation through `h` (an insert stores
/// `k → k`), looking keys up through `search`; `true` if it hit.
pub fn apply<H: MapHandle<u64, u64>>(h: &H, op: Op, search: impl Fn(&H, u64) -> bool) -> bool {
    match op.kind {
        OpKind::Insert => h.insert(op.key, op.key).is_ok(),
        OpKind::Remove => h.remove_with(&op.key, |_| ()).is_some(),
        OpKind::Search => search(h, op.key),
    }
}

/// A Criterion iteration body over `map` (fresh): prefill every even
/// key of `dist`'s space, then run `ops` generated operations on a new
/// handle per call.
pub fn op_batch<M>(map: M, mix: Mix, dist: KeyDist, seed: u64, ops: u64) -> impl FnMut()
where
    M: ConcurrentMap<Key = u64, Value = u64>,
{
    {
        let h = map.handle();
        for k in (0..space_of(&dist)).step_by(2) {
            let _ = h.insert(k, k);
        }
    }
    let mut w = WorkloadIter::new(mix, dist, seed);
    move || {
        let h = map.handle();
        for _ in 0..ops {
            std::hint::black_box(apply(&h, w.next_op(), lookup));
        }
    }
}

/// Run `cfg` against `map`, a fresh map the caller built, looking keys
/// up through `search` (usually [`lookup`]); returns throughput and the
/// essential-step delta attributable to the measured phase.
pub fn run_mixed<M, S>(map: &M, cfg: &RunConfig, search: S) -> RunResult
where
    M: ConcurrentMap<Key = u64, Value = u64>,
    S: Fn(&M::Handle<'_>, u64) -> bool + Sync,
{
    // Prefill half the key space (even keys) so searches hit ~50%.
    {
        let h = map.handle();
        let space = space_of(&cfg.dist);
        let mut inserted = 0;
        let mut k = 0;
        while inserted < cfg.prefill && k < space {
            let _ = h.insert(k, k);
            inserted += 1;
            k += 2;
        }
    }
    let barrier = Barrier::new(cfg.threads + 1);
    let mut start: Option<Instant> = None;
    let mut elapsed = Duration::ZERO;

    // `join_and_snapshot` differences telemetry around the scope: the
    // closing snapshot reads every thread's shard directly, and the
    // scope join makes the workers' counts exact in it.
    let ((), telemetry) = lf_metrics::Registry::join_and_snapshot(|| {
        std::thread::scope(|s| {
            for t in 0..cfg.threads {
                let barrier = &barrier;
                let search = &search;
                let mix = cfg.mix;
                let dist = cfg.dist.clone();
                let seed = cfg
                    .seed
                    .wrapping_add(t as u64)
                    .wrapping_mul(0x2545F4914F6CDD1D);
                let ops = cfg.ops_per_thread;
                s.spawn(move || {
                    let h = map.handle();
                    let mut w = WorkloadIter::new(mix, dist, seed);
                    // Fault in this worker's telemetry storage before
                    // the clock starts.
                    lf_metrics::prewarm();
                    barrier.wait();
                    for _ in 0..ops {
                        apply(&h, w.next_op(), search);
                    }
                });
            }
            // Start the clock before releasing the barrier: on a single
            // CPU a worker can otherwise run to completion before this
            // thread is rescheduled, shrinking the measured window to ~0.
            start = Some(Instant::now());
            barrier.wait();
            // The scope joins all workers before returning.
        });
        // Stop the clock at the join, before the closing telemetry
        // aggregation (histogram copies/merges) — that bookkeeping must
        // not be billed to the measured phase.
        elapsed = start.expect("barrier released").elapsed();
    });

    RunResult {
        ops: cfg.threads as u64 * cfg.ops_per_thread,
        elapsed,
        metrics: telemetry.counters,
        telemetry,
        peak_unreclaimed: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lf_core::FrList;

    #[test]
    fn runner_counts_ops_and_steps() {
        let cfg = RunConfig {
            threads: 2,
            ops_per_thread: 200,
            mix: Mix::CHURN,
            dist: KeyDist::Uniform { space: 64 },
            seed: 42,
            prefill: 16,
        };
        let res = run_mixed(&FrList::new(), &cfg, |h, k| lookup(h, k));
        assert_eq!(res.ops, 400);
        assert!(res.throughput() > 0.0);
        // Every op records at least its own completion; steps/op must
        // be positive on a churn workload.
        assert!(res.steps_per_op() > 0.0, "{res:?}");
        assert!(res.metrics.ops >= 400);
        // The telemetry delta attributes one retry/backlink/hop sample
        // to every measured op, and a latency sample to one op in
        // sixteen (`LATENCY_SAMPLE_EVERY`).
        // (`>=`: unit tests share process-global metrics, so a
        // concurrently running test may contribute samples too.)
        let lat = res.telemetry.op_latency_ns();
        assert!(lat.count() >= 400 / 16, "one latency sample per 16 ops");
        assert!(lat.max() > 0, "latencies are nonzero");
        assert!(res.telemetry.cas_retries().count() >= 400);
        assert!(res.telemetry.search_hops().count() >= 400);
    }
}
