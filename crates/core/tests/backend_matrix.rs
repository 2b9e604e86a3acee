//! Backend-matrix correctness tests: the same oracle proptests, leak
//! audits, and gauge checks instantiated once per reclamation backend
//! (EBR, VBR).
//!
//! The list and skip list are generic over [`lf_reclaim::Reclaim`];
//! nothing in their correctness argument may depend on which backend
//! reclaims the nodes. These tests make that claim executable:
//!
//! * **BTreeMap oracle** — a random sequential op tape (insert /
//!   remove / get / pin-free `try_read`) must agree with the oracle
//!   op-for-op and end in the same final state, on every backend;
//! * **drop audit** — every value allocated into the structure must
//!   drop exactly once, whether removed (retired through the backend)
//!   or still present at teardown (EBR; VBR's Pod bound rules out
//!   droppable values by construction);
//! * **gauge audit** — retires and frees flow through the domain's
//!   [`lf_metrics::UnreclaimedGauge`] and balance once quiescent;
//! * **concurrent smoke** — disjoint-key churn keeps the structure
//!   consistent under real parallelism on every backend.
//!
//! All of these run under Miri in the per-PR matrix (with trimmed
//! iteration counts), so each backend's unsafe reclamation path gets
//! borrow- and data-race-checked, not just stress-tested.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use lf_core::{FrList, MapHandle, SkipList};
use lf_reclaim::Reclaim;
use proptest::prelude::*;

const CASES: u32 = if cfg!(miri) { 4 } else { 48 };
const MAX_OPS: usize = if cfg!(miri) { 40 } else { 300 };

/// Drive one op tape against a structure and a `BTreeMap` oracle,
/// checking every op's result. `0,1 → insert`, `2 → remove`,
/// `3 → get + try_read`.
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
                    assert_eq!($h.try_read(&key), want, "try_read {key}");
                }
            }
        }
    };
}

/// The full matrix body, instantiated once per backend. `u64` keys and
/// values are `Pod`, so the same code covers the VBR bounds.
macro_rules! backend_matrix {
    ($backend:ident, $R:ty) => {
        mod $backend {
            use super::*;

            proptest! {
                #![proptest_config(ProptestConfig::with_cases(CASES))]

                #[test]
                fn list_matches_btreemap_oracle(
                    ops in proptest::collection::vec((0u64..4, 0u64..120, any::<u64>()), 0..MAX_OPS),
                ) {
                    let list: FrList<u64, u64, $R> = FrList::with_backend();
                    let h = list.handle();
                    let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
                    oracle_tape!(h, oracle, &ops);
                    let got: Vec<(u64, u64)> = h.iter().collect();
                    let want: Vec<(u64, u64)> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
                    prop_assert_eq!(got, want);
                    drop(h);
                    list.validate_quiescent();
                }

                #[test]
                fn skiplist_matches_btreemap_oracle(
                    ops in proptest::collection::vec((0u64..4, 0u64..120, any::<u64>()), 0..MAX_OPS),
                ) {
                    let sl: SkipList<u64, u64, $R> = SkipList::with_backend();
                    let h = sl.handle();
                    let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
                    oracle_tape!(h, oracle, &ops);
                    let got: Vec<(u64, u64)> = h.iter().collect();
                    let want: Vec<(u64, u64)> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
                    prop_assert_eq!(got, want);
                    drop(h);
                    sl.validate_quiescent();
                }
            }

            /// Retires and frees balance through the domain gauge once
            /// the structure is quiescent and reclamation has drained.
            #[test]
            fn gauge_balances_when_quiescent() {
                const N: u64 = if cfg!(miri) { 30 } else { 200 };
                let sl: SkipList<u64, u64, $R> = SkipList::with_backend();
                let h = sl.handle();
                for k in 0..N {
                    assert!(h.insert(k, k).is_ok());
                }
                for k in 0..N {
                    assert_eq!(h.remove(&k), Some(k));
                }
                let snap = <$R>::gauge(sl.domain()).snapshot();
                // Every removed tower was handed to the collector.
                assert!(snap.retired >= N, "retired {} < {}", snap.retired, N);
                assert!(snap.peak_unreclaimed >= 1);
                // Drain: with no other handle pinned, bounded flushing
                // must reclaim everything retired.
                for _ in 0..64 {
                    h.flush_reclamation();
                    if <$R>::gauge(sl.domain()).unreclaimed() == 0 {
                        break;
                    }
                }
                let snap = <$R>::gauge(sl.domain()).snapshot();
                assert_eq!(
                    snap.unreclaimed, 0,
                    "backend left garbage after drain: {snap:?}"
                );
                assert_eq!(snap.retired, snap.freed);
            }

            #[test]
            fn concurrent_disjoint_churn() {
                const THREADS: u64 = if cfg!(miri) { 2 } else { 4 };
                const PER: u64 = if cfg!(miri) { 15 } else { 150 };
                let sl: Arc<SkipList<u64, u64, $R>> = Arc::new(SkipList::with_backend());
                std::thread::scope(|s| {
                    for t in 0..THREADS {
                        let sl = Arc::clone(&sl);
                        s.spawn(move || {
                            let h = sl.handle();
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
                assert_eq!(sl.len(), (THREADS * PER / 2) as usize);
                let h = sl.handle();
                for t in 0..THREADS {
                    for i in 0..PER {
                        let want = (i % 2 == 1).then_some(t);
                        assert_eq!(h.get(&(t * PER + i)), want);
                        assert_eq!(h.try_read(&(t * PER + i)), want);
                    }
                }
                drop(h);
                sl.validate_quiescent();
            }
        }
    };
}

backend_matrix!(ebr, lf_reclaim::Ebr);
backend_matrix!(vbr, lf_vbr::Vbr);

/// Drop audit on EBR, the backend that supports droppable (non-`Pod`)
/// values: every `Counted` instance — inserted or cloned out by a
/// remove — must drop exactly once by teardown.
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
        let sl: SkipList<u32, Counted, lf_reclaim::Ebr> = SkipList::with_backend();
        let h = sl.handle();
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
        h.flush_reclamation();
        assert_eq!(sl.len(), (N / 2) as usize);
    }
    // Structure dropped: retired nodes and still-present nodes
    // alike have run their destructors exactly once.
    assert_eq!(drops.load(Ordering::SeqCst), created);
}
