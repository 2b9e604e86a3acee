//! Compile-time thread-safety contracts (C-SEND-SYNC).
//!
//! The structures are shared across threads (`Send + Sync`); the
//! per-thread handles own registration slots accessed without
//! synchronization and must stay on their thread (`!Send`).

use lockfree_lists::baselines::{
    CoarseLockList, HarrisList, HohLockList, LockSkipList, MichaelList, NoFlagList, RestartSkipList,
};
use lockfree_lists::{FrList, ListSet, SkipList, SkipSet};

fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn structures_are_send_and_sync() {
    assert_send_sync::<FrList<u64, String>>();
    assert_send_sync::<SkipList<u64, String>>();
    assert_send_sync::<ListSet<u64>>();
    assert_send_sync::<SkipSet<u64>>();
    assert_send_sync::<HarrisList<u64, String>>();
    assert_send_sync::<MichaelList<u64, String>>();
    assert_send_sync::<NoFlagList<u64, String>>();
    assert_send_sync::<CoarseLockList<u64, String>>();
    assert_send_sync::<HohLockList<u64, String>>();
    assert_send_sync::<LockSkipList<u64, String>>();
    assert_send_sync::<RestartSkipList<u64, String>>();
    assert_send_sync::<lockfree_lists::reclaim::Collector>();
    assert_send_sync::<lockfree_lists::sched::Scheduler>();
}

// The matching negative contracts (`ListHandle`/`SkipListHandle` are
// NOT `Send`) are enforced by `compile_fail` doctests on
// `lockfree_lists::thread_safety_contracts`.
