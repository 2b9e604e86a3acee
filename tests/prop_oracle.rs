//! Property-based tests: every implementation agrees with a `BTreeMap`
//! oracle over arbitrary operation sequences, and core invariants hold
//! after arbitrary histories.

use std::collections::BTreeMap;

use proptest::prelude::*;

use lockfree_lists::baselines::{
    CoarseLockList, HarrisList, HohLockList, LockSkipList, MichaelList, NoFlagList,
    RestartSkipList, SeqSkipList,
};
use lockfree_lists::{FrList, SkipList};

#[derive(Clone, Debug)]
enum Op {
    Insert(u8, u16),
    Remove(u8),
    Get(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u16>()).prop_map(|(k, v)| Op::Insert(k % 32, v)),
        any::<u8>().prop_map(|k| Op::Remove(k % 32)),
        any::<u8>().prop_map(|k| Op::Get(k % 32)),
    ]
}

macro_rules! oracle_test {
    ($name:ident, $make:expr, $bind:ident, $ins:expr, $rem:expr, $get:expr) => {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn $name(ops in proptest::collection::vec(op_strategy(), 1..200)) {
                let map = $make;
                let $bind = &map;
                let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
                for op in ops {
                    match op {
                        Op::Insert(k, v) => {
                            let (k, v) = (k as u64, v as u64);
                            let ours: bool = $ins(k, v);
                            let theirs = !oracle.contains_key(&k);
                            if theirs {
                                oracle.insert(k, v);
                            }
                            prop_assert_eq!(ours, theirs, "insert {}", k);
                        }
                        Op::Remove(k) => {
                            let k = k as u64;
                            let ours: Option<u64> = $rem(k);
                            prop_assert_eq!(ours, oracle.remove(&k), "remove {}", k);
                        }
                        Op::Get(k) => {
                            let k = k as u64;
                            let ours: Option<u64> = $get(k);
                            prop_assert_eq!(ours, oracle.get(&k).copied(), "get {}", k);
                        }
                    }
                }
            }
        }
    };
}

oracle_test!(
    fr_list_matches_btreemap,
    FrList::<u64, u64>::new(),
    m,
    |k, v| m.insert(k, v).is_ok(),
    |k| m.remove(&k),
    |k| m.get(&k)
);

oracle_test!(
    fr_skiplist_matches_btreemap,
    SkipList::<u64, u64>::new(),
    m,
    |k, v| m.insert(k, v).is_ok(),
    |k| m.remove(&k),
    |k| m.get(&k)
);

oracle_test!(
    harris_matches_btreemap,
    HarrisList::<u64, u64>::new(),
    m,
    |k, v| m.handle().insert(k, v).is_ok(),
    |k| m.handle().remove(&k),
    |k| m.handle().get(&k)
);

oracle_test!(
    michael_matches_btreemap,
    MichaelList::<u64, u64>::new(),
    m,
    |k, v| m.handle().insert(k, v).is_ok(),
    |k| m.handle().remove(&k),
    |k| m.handle().get(&k)
);

oracle_test!(
    noflag_matches_btreemap,
    NoFlagList::<u64, u64>::new(),
    m,
    |k, v| m.handle().insert(k, v).is_ok(),
    |k| m.handle().remove(&k),
    |k| m.handle().get(&k)
);

oracle_test!(
    coarse_matches_btreemap,
    CoarseLockList::<u64, u64>::new(),
    m,
    |k, v| m.insert(k, v).is_ok(),
    |k| m.remove(&k),
    |k| m.get(&k)
);

oracle_test!(
    hoh_matches_btreemap,
    HohLockList::<u64, u64>::new(),
    m,
    |k, v| m.insert(k, v).is_ok(),
    |k| m.remove(&k),
    |k| m.get(&k)
);

oracle_test!(
    lock_skiplist_matches_btreemap,
    LockSkipList::<u64, u64>::new(),
    m,
    |k, v| m.insert(k, v).is_ok(),
    |k| m.remove(&k),
    |k| m.get(&k)
);

oracle_test!(
    restart_skiplist_matches_btreemap,
    RestartSkipList::<u64, u64>::new(),
    m,
    |k, v| m.handle().insert(k, v).is_ok(),
    |k| m.handle().remove(&k),
    |k| m.handle().get(&k)
);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sequential Pugh skip list vs oracle (mutable API).
    #[test]
    fn seq_skiplist_matches_btreemap(
        seed in any::<u64>(),
        ops in proptest::collection::vec(op_strategy(), 1..200),
    ) {
        let mut sl = SeqSkipList::with_seed(seed);
        let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    let (k, v) = (k as u64, v as u64);
                    let theirs = !oracle.contains_key(&k);
                    if theirs {
                        oracle.insert(k, v);
                    }
                    prop_assert_eq!(sl.insert(k, v).is_ok(), theirs);
                }
                Op::Remove(k) => {
                    let k = k as u64;
                    prop_assert_eq!(sl.remove(&k), oracle.remove(&k));
                }
                Op::Get(k) => {
                    let k = k as u64;
                    prop_assert_eq!(sl.get(&k).copied(), oracle.get(&k).copied());
                }
            }
            prop_assert_eq!(sl.len(), oracle.len());
        }
        let ours: Vec<u64> = sl.iter().map(|(k, _)| *k).collect();
        let theirs: Vec<u64> = oracle.keys().copied().collect();
        prop_assert_eq!(ours, theirs);
    }

    /// After any op sequence the FR list passes structural validation
    /// and iterates in strictly sorted order.
    #[test]
    fn fr_list_invariants_hold(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let list = FrList::<u64, u64>::new();
        let h = list.handle();
        for op in ops {
            match op {
                Op::Insert(k, v) => { let _ = h.insert(k as u64, v as u64); }
                Op::Remove(k) => { let _ = h.remove(&(k as u64)); }
                Op::Get(k) => { let _ = h.get(&(k as u64)); }
            }
        }
        list.validate_quiescent();
        let keys: Vec<u64> = h.iter().map(|(k, _)| k).collect();
        for w in keys.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
    }

    /// Same for the skip list, across all levels.
    #[test]
    fn fr_skiplist_invariants_hold(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let sl = SkipList::<u64, u64>::new();
        let h = sl.handle();
        for op in ops {
            match op {
                Op::Insert(k, v) => { let _ = h.insert(k as u64, v as u64); }
                Op::Remove(k) => { let _ = h.remove(&(k as u64)); }
                Op::Get(k) => { let _ = h.get(&(k as u64)); }
            }
        }
        sl.validate_quiescent();
        let heights = sl.tower_heights();
        prop_assert_eq!(heights.len(), sl.len());
        for h in heights {
            prop_assert!((1..32).contains(&h));
        }
    }
}
