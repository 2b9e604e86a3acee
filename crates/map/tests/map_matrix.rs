//! Backend-matrix correctness tests for the bucketed hash map: the
//! same oracle proptests, leak audits, and gauge checks as
//! `lf-core`'s `backend_matrix`, instantiated once per reclamation
//! backend (EBR, VBR) — but against a `HashMap` oracle,
//! since the map promises no ordering.
//!
//! The map adds one hazard the single-list matrix can't see: its
//! buckets share **one node pool**, so a block retired from one
//! bucket's chain can be re-tenanted into another bucket's. The op
//! tapes here interleave inserts and removes across many buckets on a
//! small map (heavy recycling), so a pointer crossing chains, a retire
//! firing twice, or a pin-free read accepting a re-tenanted block
//! shows up as an oracle mismatch, a double-drop, or a Miri error.
//!
//! All of these run under Miri in the per-PR matrix (with trimmed
//! iteration counts).

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use lf_core::MapHandle;
use lf_map::BucketMap;
use lf_reclaim::Reclaim;
use proptest::prelude::*;

const CASES: u32 = if cfg!(miri) { 4 } else { 48 };
const MAX_OPS: usize = if cfg!(miri) { 40 } else { 300 };

/// Drive one op tape against the map and a `HashMap` oracle, checking
/// every op's result. `0,1 → insert`, `2 → remove`, `3 → get +
/// contains + get_with + try_read`.
macro_rules! oracle_tape {
    ($h:expr, $oracle:expr, $ops:expr) => {
        for &(sel, key, val) in $ops {
            match sel {
                0 | 1 => {
                    let expect = !$oracle.contains_key(&key);
                    assert_eq!($h.insert(key, val).is_ok(), expect, "insert {key}");
                    $oracle.entry(key).or_insert(val);
                }
                2 => {
                    assert_eq!($h.remove(&key), $oracle.remove(&key), "remove {key}");
                }
                _ => {
                    let want = $oracle.get(&key).copied();
                    assert_eq!($h.get(&key), want, "get {key}");
                    assert_eq!($h.contains(&key), want.is_some(), "contains {key}");
                    assert_eq!($h.get_with(&key, |v| *v), want, "get_with {key}");
                    assert_eq!($h.try_read(&key), want, "try_read {key}");
                }
            }
        }
    };
}

/// The full matrix body, instantiated once per backend. `u64` keys and
/// values are `Pod`, so the same code covers the VBR bounds. A small
/// bucket count (8) under a 120-key space keeps every chain busy and
/// the shared pool recycling across buckets.
macro_rules! backend_matrix {
    ($backend:ident, $R:ty) => {
        mod $backend {
            use super::*;

            proptest! {
                #![proptest_config(ProptestConfig::with_cases(CASES))]

                #[test]
                fn map_matches_hashmap_oracle(
                    ops in proptest::collection::vec((0u64..4, 0u64..120, any::<u64>()), 0..MAX_OPS),
                ) {
                    let map: BucketMap<u64, u64, $R> = BucketMap::with_backend(8);
                    let h = map.handle();
                    let mut oracle: HashMap<u64, u64> = HashMap::new();
                    oracle_tape!(h, oracle, &ops);
                    let mut got: Vec<(u64, u64)> = h.iter().collect();
                    got.sort_unstable();
                    let mut want: Vec<(u64, u64)> =
                        oracle.iter().map(|(&k, &v)| (k, v)).collect();
                    want.sort_unstable();
                    prop_assert_eq!(got, want);
                    prop_assert_eq!(map.len(), oracle.len());
                    drop(h);
                    map.validate_quiescent();
                }
            }

            /// Retires and frees balance through the shared domain's
            /// gauge once the map is quiescent and reclamation has
            /// drained — every bucket retires into the *same* gauge.
            #[test]
            fn gauge_balances_when_quiescent() {
                const N: u64 = if cfg!(miri) { 30 } else { 200 };
                let map: BucketMap<u64, u64, $R> = BucketMap::with_backend(8);
                let h = map.handle();
                for k in 0..N {
                    assert!(h.insert(k, k).is_ok());
                }
                for k in 0..N {
                    assert_eq!(h.remove(&k), Some(k));
                }
                let snap = <$R>::gauge(map.domain()).snapshot();
                // Every removed node was handed to the collector.
                assert!(snap.retired >= N, "retired {} < {}", snap.retired, N);
                assert!(snap.peak_unreclaimed >= 1);
                // Drain: with no other handle pinned, bounded flushing
                // must reclaim everything retired.
                for _ in 0..64 {
                    h.flush_reclamation();
                    if <$R>::gauge(map.domain()).unreclaimed() == 0 {
                        break;
                    }
                }
                let snap = <$R>::gauge(map.domain()).snapshot();
                assert_eq!(
                    snap.unreclaimed, 0,
                    "backend left garbage after drain: {snap:?}"
                );
                assert_eq!(snap.retired, snap.freed);
            }

            /// Disjoint-key churn across threads: every thread's keys
            /// scatter over all buckets, so chains see concurrent
            /// insert/delete traffic and the shared pool recycles
            /// blocks between buckets while other threads traverse.
            #[test]
            fn concurrent_disjoint_churn() {
                const THREADS: u64 = if cfg!(miri) { 2 } else { 4 };
                const PER: u64 = if cfg!(miri) { 15 } else { 150 };
                let map: Arc<BucketMap<u64, u64, $R>> = Arc::new(BucketMap::with_backend(8));
                std::thread::scope(|s| {
                    for t in 0..THREADS {
                        let map = Arc::clone(&map);
                        s.spawn(move || {
                            let h = map.handle();
                            let base = t * PER;
                            for i in 0..PER {
                                h.insert(base + i, t).unwrap();
                            }
                            // Remove the even half; the odd half stays.
                            for i in (0..PER).step_by(2) {
                                assert_eq!(h.remove(&(base + i)), Some(t));
                            }
                        });
                    }
                });
                assert_eq!(map.len(), (THREADS * PER / 2) as usize);
                let h = map.handle();
                for t in 0..THREADS {
                    for i in 0..PER {
                        let want = (i % 2 == 1).then_some(t);
                        assert_eq!(h.get(&(t * PER + i)), want);
                        assert_eq!(h.try_read(&(t * PER + i)), want);
                    }
                }
                drop(h);
                map.validate_quiescent();
            }
        }
    };
}

backend_matrix!(ebr, lf_reclaim::Ebr);
backend_matrix!(vbr, lf_vbr::Vbr);

/// Drop audit on EBR, the backend that supports droppable (non-`Pod`)
/// values: every `Counted` instance — inserted or cloned out by a
/// remove — must drop exactly once by teardown, no matter which bucket
/// it lived in or which bucket's chain its block was recycled into
/// afterwards. (VBR's `Pod` bound rules out droppable values by
/// construction.)
#[test]
fn ebr_drops_every_value_once() {
    const N: u32 = if cfg!(miri) { 25 } else { 150 };
    #[derive(Debug)]
    struct Counted(Arc<AtomicUsize>);
    impl Clone for Counted {
        fn clone(&self) -> Self {
            Counted(Arc::clone(&self.0))
        }
    }
    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }
    let drops = Arc::new(AtomicUsize::new(0));
    let mut created = 0usize;
    {
        let map: BucketMap<u32, Counted, lf_reclaim::Ebr> = BucketMap::with_backend(8);
        let h = map.handle();
        for k in 0..N {
            h.insert(k, Counted(Arc::clone(&drops))).unwrap();
            created += 1;
        }
        // Each successful remove clones one `Counted` out (the
        // return value) and retires the in-node original.
        for k in (0..N).step_by(2) {
            assert!(h.remove(&k).is_some());
            created += 1;
        }
        // Reinsert over the removed keys: the shared pool hands
        // the retired blocks back, possibly to other buckets.
        for k in (0..N).step_by(2) {
            h.insert(k, Counted(Arc::clone(&drops))).unwrap();
            created += 1;
        }
        h.flush_reclamation();
        assert_eq!(map.len(), N as usize);
    }
    // Map dropped: retired nodes and still-present nodes alike
    // have run their destructors exactly once.
    assert_eq!(drops.load(Ordering::SeqCst), created);
}
