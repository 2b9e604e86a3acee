//! Log-bucketed histograms over the full `u64` range at ~2 significant
//! figures.
//!
//! The bucket layout is the HdrHistogram one: values below
//! [`SUB_BUCKET_COUNT`] are recorded exactly; above that, each
//! power-of-two range is split into [`SUB_BUCKET_HALF`] linear
//! sub-buckets, so the relative quantization error is bounded by
//! `1/128 < 1%` everywhere. A histogram is a flat array of
//! [`SLOT_COUNT`] counters — recording is two shifts, a subtract, and
//! an increment, with no allocation and no synchronization, which is
//! what lets the thread-local recording path stay out of the way of
//! the lock-free hot loops it observes.
//!
//! Percentiles follow the paper's framing: the distributional claims of
//! Fomitchev & Ruppert (amortized `O(n(S) + c(S))`) are about *tails*,
//! not means, so [`Histogram::percentile`] reports the highest value
//! equivalent to the bucket containing the requested rank — the
//! conservative (upper) end of the bucket.

use std::fmt;
use std::ops::Sub;
use std::sync::atomic::{AtomicU64, Ordering};

/// log2 of [`SUB_BUCKET_COUNT`].
const SUB_BUCKET_BITS: u32 = 8;
/// Values below this are recorded exactly (one slot per value).
pub const SUB_BUCKET_COUNT: usize = 1 << SUB_BUCKET_BITS;
/// Linear sub-buckets per power-of-two range above the exact region.
pub const SUB_BUCKET_HALF: usize = SUB_BUCKET_COUNT / 2;
const SUB_BUCKET_MASK: u64 = (SUB_BUCKET_COUNT - 1) as u64;
/// Total slots needed to cover `0..=u64::MAX`.
pub const SLOT_COUNT: usize = (64 - SUB_BUCKET_BITS as usize + 2) * SUB_BUCKET_HALF;

/// Slot index covering value `v`.
#[inline]
pub fn index_for(v: u64) -> usize {
    let bucket = (64 - (v | SUB_BUCKET_MASK).leading_zeros() - SUB_BUCKET_BITS) as usize;
    let sub = (v >> bucket) as usize;
    (bucket + 1) * SUB_BUCKET_HALF + sub - SUB_BUCKET_HALF
}

/// Smallest value mapping to slot `index`.
#[inline]
pub fn lowest_equivalent(index: usize) -> u64 {
    if index < SUB_BUCKET_COUNT {
        index as u64
    } else {
        let bucket = index / SUB_BUCKET_HALF - 1;
        let sub = index % SUB_BUCKET_HALF + SUB_BUCKET_HALF;
        (sub as u64) << bucket
    }
}

/// Largest value mapping to slot `index`.
#[inline]
pub fn highest_equivalent(index: usize) -> u64 {
    if index < SUB_BUCKET_COUNT {
        index as u64
    } else {
        let bucket = index / SUB_BUCKET_HALF - 1;
        lowest_equivalent(index).saturating_add((1u64 << bucket) - 1)
    }
}

/// A single-writer log-bucketed histogram.
///
/// Plain `u64` counters: record into one from a single thread (or
/// behind external synchronization), then [`Histogram::merge`] into an
/// aggregate. Two aggregates can be differenced with `-` to isolate a
/// measurement phase.
///
/// # Examples
///
/// ```
/// use lf_metrics::Histogram;
///
/// let mut h = Histogram::new();
/// for v in 1..=200u64 {
///     h.record(v); // values < 256 are recorded exactly
/// }
/// assert_eq!(h.count(), 200);
/// assert_eq!(h.percentile(50.0), 100);
/// assert_eq!(h.percentile(99.0), 198);
/// assert_eq!(h.max(), 200);
/// ```
pub struct Histogram {
    counts: Box<[u64]>,
    total: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for Histogram {
    fn clone(&self) -> Self {
        Histogram {
            counts: self.counts.clone(),
            total: self.total,
            sum: self.sum,
        }
    }
}

impl Histogram {
    /// An empty histogram (allocates its ~58 KiB slot array).
    pub fn new() -> Self {
        Histogram {
            counts: vec![0u64; SLOT_COUNT].into_boxed_slice(),
            total: 0,
            sum: 0,
        }
    }

    /// Record one observation of `v`.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` observations of `v`.
    #[inline]
    pub fn record_n(&mut self, v: u64, n: u64) {
        self.counts[index_for(v)] += n;
        self.total += n;
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
    }

    /// Fold `other`'s observations into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        for (dst, src) in self.counts.iter_mut().zip(other.counts.iter()) {
            *dst += *src;
        }
        self.total += other.total;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Reset to empty without reallocating.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
        self.sum = 0;
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Arithmetic mean (0.0 if empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Smallest recorded value, rounded down to its bucket boundary
    /// (0 if empty).
    pub fn min(&self) -> u64 {
        self.counts
            .iter()
            .position(|&c| c != 0)
            .map(lowest_equivalent)
            .unwrap_or(0)
    }

    /// Largest recorded value, rounded up to its bucket boundary
    /// (0 if empty).
    pub fn max(&self) -> u64 {
        self.counts
            .iter()
            .rposition(|&c| c != 0)
            .map(highest_equivalent)
            .unwrap_or(0)
    }

    /// The value at the given percentile (`0.0..=100.0`), reported as
    /// the upper bound of the bucket holding that rank (0 if empty).
    pub fn percentile(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let target = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let target = target.min(self.total);
        let mut acc = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= target {
                return highest_equivalent(i);
            }
        }
        self.max()
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.percentile(90.0)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.percentile(99.9)
    }

    /// Iterate over `(lowest_value, count)` for every nonempty slot.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(i, &c)| (lowest_equivalent(i), c))
    }
}

impl Sub for Histogram {
    type Output = Histogram;

    /// Per-bucket difference (`after - before`), for isolating a phase
    /// between two cumulative snapshots.
    fn sub(self, rhs: Histogram) -> Histogram {
        let mut out = self;
        for (dst, src) in out.counts.iter_mut().zip(rhs.counts.iter()) {
            *dst = dst.wrapping_sub(*src);
        }
        out.total = out.total.wrapping_sub(rhs.total);
        out.sum = out.sum.wrapping_sub(rhs.sum);
        out
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.total)
            .field("p50", &self.p50())
            .field("p99", &self.p99())
            .field("max", &self.max())
            .finish()
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.1} p50={} p90={} p99={} p999={} max={}",
            self.count(),
            self.mean(),
            self.p50(),
            self.p90(),
            self.p99(),
            self.p999(),
            self.max()
        )
    }
}

/// The lock-free aggregate a flushing thread merges its local
/// [`Histogram`] into: the same slot layout with atomic counters, so
/// concurrent flushes never block each other.
///
/// Public since the async serving layer: subsystems that cannot use the
/// per-thread shard machinery (e.g. `lf-async`'s service metrics, where
/// producers and workers on arbitrary threads record into one shared
/// histogram) embed an `AtomicHistogram` directly and record via the
/// multi-writer [`AtomicHistogram::record`].
pub struct AtomicHistogram {
    counts: Box<[AtomicU64]>,
    total: AtomicU64,
    sum: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    /// An empty atomic histogram (allocates its ~58 KiB slot array).
    pub fn new() -> Self {
        let mut v = Vec::with_capacity(SLOT_COUNT);
        v.resize_with(SLOT_COUNT, || AtomicU64::new(0));
        AtomicHistogram {
            counts: v.into_boxed_slice(),
            total: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Multi-writer record: `fetch_add` so any number of threads can
    /// record concurrently into one shared histogram. Costlier than
    /// [`AtomicHistogram::record_owner`] (a locked RMW per field), so
    /// the single-writer shard path keeps using the owner variant; this
    /// one serves shared service-level histograms (queue depth,
    /// enqueue-to-complete latency) where there is no owner.
    #[inline]
    pub fn record(&self, v: u64) {
        self.record_n(v, 1);
    }

    /// Multi-writer record of `n` observations of `v` at the price of
    /// one (e.g. one latency shared by every request of a batch).
    #[inline]
    pub fn record_n(&self, v: u64, n: u64) {
        // ord: Relaxed — MET.shard: statistic counter, snapshots racy-fresh
        self.counts[index_for(v)].fetch_add(n, Ordering::Relaxed);
        // ord: Relaxed — MET.shard: statistic counter, snapshots racy-fresh
        self.total.fetch_add(n, Ordering::Relaxed);
        // ord: Relaxed — MET.shard: statistic counter, snapshots racy-fresh
        self.sum.fetch_add(v.saturating_mul(n), Ordering::Relaxed);
    }

    /// Owner-only record: relaxed load+store instead of `fetch_add`,
    /// because the owning thread is the histogram's sole writer.
    /// Concurrent readers ([`AtomicHistogram::add_into`]) may observe
    /// the slot before the total (or vice versa) — snapshots are
    /// racy-fresh by contract and exact once the writer is joined.
    pub(crate) fn record_owner(&self, v: u64) {
        let slot = &self.counts[index_for(v)];
        // ord: Relaxed — MET.shard: single-writer counter, snapshots racy-fresh
        slot.store(slot.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        // ord: Relaxed — MET.shard: single-writer counter, snapshots racy-fresh
        self.total
            .store(self.total.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        // ord: Relaxed — MET.shard: single-writer counter, snapshots racy-fresh
        let s = self.sum.load(Ordering::Relaxed);
        // ord: Relaxed — MET.shard: single-writer counter, snapshots racy-fresh
        self.sum.store(s.saturating_add(v), Ordering::Relaxed);
    }

    /// Fold `other` into `self` and zero `other` (skipping empty
    /// slots). Used to retire a dead thread's shard into the global
    /// aggregate; the caller serializes against snapshot readers.
    pub(crate) fn absorb(&self, other: &AtomicHistogram) {
        // Load-then-swap: nearly all slots are empty, and a plain load
        // is ~20x cheaper than a locked `swap`. This runs on a worker's
        // exit path inside benchmark timing windows, so sweeping 30k
        // slots with RMWs would bill milliseconds to the measured
        // phase. The caller serializes against the owner, so a slot
        // cannot become nonzero between the load and the skip.
        for (dst, src) in self.counts.iter().zip(other.counts.iter()) {
            // ord: Relaxed — MET.shard: single-writer counter, snapshots racy-fresh
            if src.load(Ordering::Relaxed) != 0 {
                // ord: Relaxed — MET.shard: single-writer counter, snapshots racy-fresh
                dst.fetch_add(src.swap(0, Ordering::Relaxed), Ordering::Relaxed);
            }
        }
        // ord: Relaxed — MET.shard: single-writer counter, snapshots racy-fresh
        self.total
            .fetch_add(other.total.swap(0, Ordering::Relaxed), Ordering::Relaxed);
        // ord: Relaxed — MET.shard: single-writer counter, snapshots racy-fresh
        self.sum
            .fetch_add(other.sum.swap(0, Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Accumulate a relaxed copy of `self` into `dst`.
    pub fn add_into(&self, dst: &mut Histogram) {
        for (d, s) in dst.counts.iter_mut().zip(self.counts.iter()) {
            // ord: Relaxed — MET.shard: single-writer counter, snapshots racy-fresh
            *d += s.load(Ordering::Relaxed);
        }
        // ord: Relaxed — MET.shard: single-writer counter, snapshots racy-fresh
        dst.total += self.total.load(Ordering::Relaxed);
        // ord: Relaxed — MET.shard: single-writer counter, snapshots racy-fresh
        dst.sum = dst.sum.saturating_add(self.sum.load(Ordering::Relaxed));
    }

    /// Copy into a plain [`Histogram`].
    pub fn load(&self) -> Histogram {
        let mut h = Histogram::new();
        for (dst, src) in h.counts.iter_mut().zip(self.counts.iter()) {
            // ord: Relaxed — MET.shard: single-writer counter, snapshots racy-fresh
            *dst = src.load(Ordering::Relaxed);
        }
        // ord: Relaxed — MET.shard: single-writer counter, snapshots racy-fresh
        h.total = self.total.load(Ordering::Relaxed);
        // ord: Relaxed — MET.shard: single-writer counter, snapshots racy-fresh
        h.sum = self.sum.load(Ordering::Relaxed);
        h
    }

    /// Zero every counter in place.
    pub fn reset(&self) {
        for c in self.counts.iter() {
            // ord: Relaxed — MET.shard: single-writer counter, snapshots racy-fresh
            c.store(0, Ordering::Relaxed);
        }
        // ord: Relaxed — MET.shard: single-writer counter, snapshots racy-fresh
        self.total.store(0, Ordering::Relaxed);
        // ord: Relaxed — MET.shard: single-writer counter, snapshots racy-fresh
        self.sum.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_region_is_exact() {
        for v in 0..SUB_BUCKET_COUNT as u64 {
            let i = index_for(v);
            assert_eq!(lowest_equivalent(i), v);
            assert_eq!(highest_equivalent(i), v);
        }
    }

    #[test]
    fn boundary_round_trips() {
        // Every slot's boundaries map back to that slot.
        for i in 0..SLOT_COUNT {
            let lo = lowest_equivalent(i);
            let hi = highest_equivalent(i);
            assert_eq!(index_for(lo), i, "lowest of slot {i}");
            assert_eq!(index_for(hi), i, "highest of slot {i}");
            assert!(lo <= hi);
        }
        // Extremes.
        assert_eq!(index_for(0), 0);
        assert_eq!(index_for(u64::MAX), SLOT_COUNT - 1);
    }

    #[test]
    fn quantization_error_within_two_sigfigs() {
        for shift in 8..63 {
            let v = (1u64 << shift) + (1u64 << (shift - 1)) + 3;
            let i = index_for(v);
            let (lo, hi) = (lowest_equivalent(i), highest_equivalent(i));
            assert!(lo <= v && v <= hi);
            let err = (hi - lo) as f64 / lo as f64;
            assert!(err < 1.0 / 128.0, "slot width {err} at value {v}");
        }
    }

    #[test]
    fn percentile_of_uniform_ramp() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for (p, expect) in [(50.0, 5_000), (90.0, 9_000), (99.0, 9_900), (99.9, 9_990)] {
            let got = h.percentile(p);
            let expect = expect as f64;
            let rel = (got as f64 - expect).abs() / expect;
            assert!(rel < 0.01, "p{p}: got {got}, want ~{expect}");
        }
        assert!(h.min() <= 1);
        assert!(h.max() >= 10_000);
        assert!((h.mean() - 5_000.5).abs() < 1.0);
    }

    #[test]
    fn merge_and_sub() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record_n(10, 5);
        b.record_n(10, 2);
        b.record(1_000_000);
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.count(), 8);
        let d = m - a;
        assert_eq!(d.count(), b.count());
        assert_eq!(d.sum(), b.sum());
        assert_eq!(d.percentile(100.0), b.percentile(100.0));
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.is_empty());
    }

    #[test]
    fn atomic_multi_writer_record() {
        let h = std::sync::Arc::new(AtomicHistogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..100u64 {
                        h.record(t * 1_000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = h.load();
        assert_eq!(s.count(), 400);
        let expect: u64 = (0..4u64)
            .map(|t| (0..100).map(|i| t * 1_000 + i).sum::<u64>())
            .sum();
        assert_eq!(s.sum(), expect);
    }

    #[test]
    fn atomic_record_absorb_and_load() {
        let shard = AtomicHistogram::new();
        for _ in 0..3 {
            shard.record_owner(42);
        }
        shard.record_owner(7_777);
        let g = AtomicHistogram::new();
        g.absorb(&shard);
        assert!(shard.load().is_empty(), "absorb zeroes the source");
        let s = g.load();
        assert_eq!(s.count(), 4);
        assert_eq!(s.sum(), 3 * 42 + 7_777);
        let mut acc = Histogram::new();
        acc.record(1);
        g.add_into(&mut acc);
        assert_eq!(acc.count(), 5);
        assert_eq!(acc.sum(), 1 + 3 * 42 + 7_777);
        g.reset();
        assert!(g.load().is_empty());
    }
}
