//! Peak-unreclaimed-memory gauge for the SMR backends.
//!
//! Every `Reclaim` domain (EBR collector, VBR domain) embeds one
//! [`UnreclaimedGauge`] and bumps it at retire and free time. The gauge keeps the running retired-minus-freed count
//! *and* its high-water mark, so the cross-SMR experiment (E14) can
//! report "peak unreclaimed memory" per backend — including under a
//! stalled reader, where the difference between schemes that bound
//! garbage and schemes that don't is the whole story — without each
//! experiment wiring up ad-hoc counters.
//!
//! Counts are in *objects*, not bytes: every backend retires whole
//! nodes/tower blocks, so object counts compare like-for-like across
//! backends operating on the same structure.

use std::sync::atomic::{AtomicU64, Ordering};

/// Running retired/freed totals and the unreclaimed high-water mark of
/// one reclamation domain.
///
/// All methods are lock-free and callable from any thread; the peak is
/// maintained with a `fetch_max`, so concurrent retires can never lose
/// a high-water update.
#[derive(Debug, Default)]
pub struct UnreclaimedGauge {
    /// Total objects handed to the collector since domain creation.
    retired: AtomicU64,
    /// Total objects whose destructors have run.
    freed: AtomicU64,
    /// High-water mark of `retired - freed`.
    peak: AtomicU64,
}

/// A point-in-time copy of an [`UnreclaimedGauge`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UnreclaimedSnapshot {
    /// Total objects retired since domain creation.
    pub retired: u64,
    /// Total objects freed since domain creation.
    pub freed: u64,
    /// Objects currently awaiting reclamation (`retired - freed`).
    pub unreclaimed: u64,
    /// High-water mark of `unreclaimed` over the domain's lifetime.
    pub peak_unreclaimed: u64,
}

impl UnreclaimedGauge {
    /// A zeroed gauge.
    pub const fn new() -> Self {
        UnreclaimedGauge {
            retired: AtomicU64::new(0),
            freed: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    /// Record `n` objects handed to the collector.
    #[inline]
    pub fn record_retire(&self, n: u64) {
        // Relaxed everywhere in this gauge: the counters are pure
        // statistics — never dereferenced, never used to order frees.
        // The peak is racy-fresh (a reader may briefly see a peak one
        // update behind a concurrent retire), which is fine for a
        // high-water diagnostic.
        // ord: Relaxed — STAT.len: pure statistic, no ordering role
        let retired = self.retired.fetch_add(n, Ordering::Relaxed) + n;
        // ord: Relaxed — STAT.len: pure statistic, no ordering role
        let freed = self.freed.load(Ordering::Relaxed);
        // `freed` may run ahead of the `retired` we read under
        // concurrency; saturate rather than wrap.
        let outstanding = retired.saturating_sub(freed);
        // ord: Relaxed — STAT.len: pure statistic, no ordering role
        self.peak.fetch_max(outstanding, Ordering::Relaxed);
    }

    /// Record `n` objects whose destructors have run.
    #[inline]
    pub fn record_free(&self, n: u64) {
        // ord: Relaxed — STAT.len: pure statistic, no ordering role
        self.freed.fetch_add(n, Ordering::Relaxed);
    }

    /// Objects currently awaiting reclamation.
    pub fn unreclaimed(&self) -> u64 {
        self.snapshot().unreclaimed
    }

    /// The unreclaimed high-water mark.
    pub fn peak_unreclaimed(&self) -> u64 {
        // ord: Relaxed — STAT.len: pure statistic, no ordering role
        self.peak.load(Ordering::Relaxed)
    }

    /// A consistent-enough copy of all counters (racy-fresh under
    /// concurrency, exact when quiescent).
    pub fn snapshot(&self) -> UnreclaimedSnapshot {
        // ord: Relaxed — STAT.len: pure statistic, no ordering role
        let retired = self.retired.load(Ordering::Relaxed);
        // ord: Relaxed — STAT.len: pure statistic, no ordering role
        let freed = self.freed.load(Ordering::Relaxed);
        UnreclaimedSnapshot {
            retired,
            freed,
            unreclaimed: retired.saturating_sub(freed),
            // ord: Relaxed — STAT.len: pure statistic, no ordering role
            peak_unreclaimed: self.peak.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retire_free_cycle_tracks_peak() {
        let g = UnreclaimedGauge::new();
        g.record_retire(3);
        assert_eq!(g.unreclaimed(), 3);
        assert_eq!(g.peak_unreclaimed(), 3);
        g.record_free(2);
        assert_eq!(g.unreclaimed(), 1);
        // Peak never decreases.
        assert_eq!(g.peak_unreclaimed(), 3);
        g.record_retire(5);
        let s = g.snapshot();
        assert_eq!(s.retired, 8);
        assert_eq!(s.freed, 2);
        assert_eq!(s.unreclaimed, 6);
        assert_eq!(s.peak_unreclaimed, 6);
    }

    #[test]
    fn concurrent_retires_never_lose_the_peak() {
        use std::sync::Arc;
        let g = Arc::new(UnreclaimedGauge::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let g = Arc::clone(&g);
                s.spawn(move || {
                    for _ in 0..1000 {
                        g.record_retire(1);
                    }
                });
            }
        });
        let s = g.snapshot();
        assert_eq!(s.retired, 4000);
        assert_eq!(s.unreclaimed, 4000);
        assert_eq!(s.peak_unreclaimed, 4000);
    }
}
