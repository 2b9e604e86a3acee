//! Randomized interleaving exploration (mini model checking) of the
//! shipped lists, plus digit-exact step totals of the paper's fixed
//! schedules.
//!
//! The deterministic scheduler lets us drive a *random but
//! reproducible* interleaving of several concurrent operations on the
//! real `FrList` and baselines — each operation a scheduler process
//! with its own per-thread handle — and check outcomes after every
//! schedule. Seeds that fail can be replayed exactly. Scripted single
//! schedules (Fig. 2, helping a halted deleter, the §3.1 recovery gap)
//! and the step hook's isolation from threads that are not processes
//! are checked here too.

use std::collections::BTreeSet;
use std::sync::{mpsc, Arc};
use std::time::Duration;

use lockfree_lists::baselines::{HarrisList, MichaelList, NoFlagList};
use lockfree_lists::sched::{Observation, OpHandle, Scheduler, StepKind};
use lockfree_lists::{ConcurrentMap, FrList, MapHandle, SkipList};

/// The lists as sets of `u64`, one fresh per-thread handle per op.
trait Set: Default + Send + Sync + 'static {
    fn ins(&self, k: u64) -> bool;
    fn del(&self, k: u64) -> bool;
    fn has(&self, k: u64) -> bool;
}

impl<M> Set for M
where
    M: ConcurrentMap<Key = u64, Value = u64> + Default + 'static,
{
    fn ins(&self, k: u64) -> bool {
        self.handle().insert(k, k).is_ok()
    }
    fn del(&self, k: u64) -> bool {
        self.handle().remove_with(&k, |_| ()).is_some()
    }
    fn has(&self, k: u64) -> bool {
        self.handle().get_with(&k, |_| ()).is_some()
    }
}

fn spawn<L: Set, R: Send + 'static>(
    sched: &Scheduler,
    list: &Arc<L>,
    f: impl FnOnce(&L) -> R + Send + 'static,
) -> OpHandle<R> {
    let l = list.clone();
    sched.spawn(move |_| f(&l))
}

/// Run one operation to completion.
fn run<L: Set, R: Send + 'static>(
    sched: &Scheduler,
    list: &Arc<L>,
    f: impl FnOnce(&L) -> R + Send + 'static,
) -> R {
    let op = spawn(sched, list, f);
    sched.run_to_completion(op.pid());
    op.join()
}

/// A fresh list holding `keys`, each inserted by its own process.
fn prefilled<L: Set>(sched: &Scheduler, keys: impl IntoIterator<Item = u64>) -> Arc<L> {
    let list = Arc::new(L::default());
    for k in keys {
        assert!(run(sched, &list, move |l| l.ins(k)), "prefill {k}");
    }
    list
}

/// Present keys, read back from the director (which is not a process,
/// so its reads pass straight through the step hook).
fn keys<L: Set>(list: &L, space: std::ops::Range<u64>) -> Vec<u64> {
    space.filter(|&k| list.has(k)).collect()
}

/// Drive all `pids` to completion, picking the next process to step
/// with an LCG seeded by `seed`; `after_step` runs after every step.
fn random_drive(sched: &Scheduler, pids: &[usize], seed: u64, mut after_step: impl FnMut()) {
    let mut x = seed | 1;
    let mut live: Vec<usize> = pids.to_vec();
    while !live.is_empty() {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let idx = ((x >> 33) as usize) % live.len();
        let pid = live[idx];
        match sched.peek(pid) {
            Observation::Finished => {
                live.swap_remove(idx);
            }
            Observation::Pending(_) => {
                sched.grant(pid, 1);
                after_step();
            }
        }
    }
}

fn pids<R>(ops: &[OpHandle<R>]) -> Vec<usize> {
    ops.iter().map(OpHandle::pid).collect()
}

fn sequential_matches_btreeset<L: Set>(seed: u64, space: u64) {
    let sched = Scheduler::new();
    let list = prefilled::<L>(&sched, []);
    let mut oracle = BTreeSet::new();
    let mut x = seed;
    for _ in 0..400 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        let k = (x >> 33) % space;
        match x % 3 {
            0 => assert_eq!(run(&sched, &list, move |l| l.ins(k)), oracle.insert(k)),
            1 => assert_eq!(run(&sched, &list, move |l| l.del(k)), oracle.remove(&k)),
            _ => assert_eq!(run(&sched, &list, move |l| l.has(k)), oracle.contains(&k)),
        }
    }
    assert_eq!(
        keys(&*list, 0..space),
        oracle.into_iter().collect::<Vec<_>>()
    );
}

/// One process at a time, each list agrees with a `BTreeSet`.
#[test]
fn sequential_ops_match_btreeset() {
    sequential_matches_btreeset::<FrList<u64, u64>>(99, 50);
    sequential_matches_btreeset::<HarrisList<u64, u64>>(7, 50);
    sequential_matches_btreeset::<MichaelList<u64, u64>>(21, 40);
    sequential_matches_btreeset::<NoFlagList<u64, u64>>(3, 40);
}

/// Paper Fig. 2 / E1: an uncontended deletion performs exactly one
/// flagging, one marking, and one physical-deletion C&S, in order.
#[test]
fn fr_deletion_is_exactly_three_cas() {
    let sched = Scheduler::new();
    let list = prefilled::<FrList<u64, u64>>(&sched, [1, 2, 3]);
    let op = spawn(&sched, &list, |l| l.del(2));
    let pid = op.pid();
    for kind in [StepKind::CasFlag, StepKind::CasMark, StepKind::CasUnlink] {
        assert!(sched.run_until_pending(pid, StepKind::is_cas));
        assert_eq!(sched.peek(pid), Observation::Pending(kind));
        sched.grant(pid, 1);
    }
    sched.run_to_completion(pid);
    assert!(op.join());
    for kind in [StepKind::CasFlag, StepKind::CasMark, StepKind::CasUnlink] {
        assert_eq!(sched.steps_of(pid, kind), 1, "{kind:?}");
    }
    assert_eq!(keys(&*list, 0..5), vec![1, 3]);
}

/// Lock-freedom under failure injection: a deleter halted right after
/// flagging cannot block an insert at the same spot — the inserter
/// helps the deletion complete.
#[test]
fn fr_helping_overcomes_halted_deleter() {
    let sched = Scheduler::new();
    let list = prefilled::<FrList<u64, u64>>(&sched, [10, 20]);
    // Deleter of 20 flags node 10, then halts.
    let deleter = spawn(&sched, &list, |l| l.del(20));
    assert!(sched.run_until_pending(deleter.pid(), |k| k == StepKind::CasFlag));
    sched.grant(deleter.pid(), 1);
    assert!(sched.run_until_pending(deleter.pid(), |k| k == StepKind::CasMark));

    // Inserter of 15 must still complete (it helps delete 20).
    assert!(run(&sched, &list, |l| l.ins(15)));
    list.check_invariants();
    assert_eq!(keys(&*list, 0..30), vec![10, 15]);

    // The halted deleter still reports success: the deletion it
    // started was completed for it.
    sched.run_to_completion(deleter.pid());
    assert!(deleter.join());
}

/// Steps an inserter paused right before its C&S needs to finish after
/// the last node — its predecessor — is deleted out from under it.
fn recovery_after_interference<L: Set>() -> u64 {
    let sched = Scheduler::new();
    let list = prefilled::<L>(&sched, 0..20);
    let ins = spawn(&sched, &list, |l| l.ins(100));
    assert!(sched.run_until_pending(ins.pid(), |k| k == StepKind::CasInsert));
    let before = sched.steps(ins.pid());
    assert!(run(&sched, &list, |l| l.del(19)));
    sched.run_to_completion(ins.pid());
    let pid = ins.pid();
    assert!(ins.join());
    sched.steps(pid) - before
}

/// A miniature §3.1 round: Harris restarts from the head (≥ 20
/// traversal steps); FR recovers through one backlink.
#[test]
fn fr_recovers_cheaper_than_harris_after_interference() {
    let fr = recovery_after_interference::<FrList<u64, u64>>();
    let harris = recovery_after_interference::<HarrisList<u64, u64>>();
    assert!(harris > 2 * fr, "harris {harris} vs fr {fr}");
}

/// The step hook is process-wide, but only scheduler processes block in
/// it: while a process sits halted mid-deletion, a plain thread runs
/// real `FrList` and `SkipList` operations to completion — on the very
/// list the halted process holds flagged, too.
#[test]
fn plain_threads_pass_through_the_hook_while_a_process_is_halted() {
    let sched = Scheduler::new();
    let list = prefilled::<FrList<u64, u64>>(&sched, [10, 20]);
    let halted = spawn(&sched, &list, |l| l.del(20));
    assert!(sched.run_until_pending(halted.pid(), |k| k == StepKind::CasMark));
    let halted_steps = sched.steps(halted.pid());

    let (done, finished) = mpsc::channel();
    let l = list.clone();
    let plain = std::thread::spawn(move || {
        let h = l.handle();
        h.insert(15, 15).unwrap();
        assert_eq!(
            h.get(&20),
            None,
            "the plain thread helped the deletion through"
        );
        let own = FrList::new();
        let sl = SkipList::new();
        let (fh, sh) = (own.handle(), sl.handle());
        for k in 0..64u64 {
            fh.insert(k, k).unwrap();
            sh.insert(k, k).unwrap();
        }
        for k in (0..64u64).step_by(2) {
            assert_eq!(fh.remove(&k), Some(k));
            assert_eq!(sh.remove(&k), Some(k));
        }
        done.send(()).unwrap();
    });
    finished
        .recv_timeout(Duration::from_secs(60))
        .expect("a thread without a process blocked in the step hook");
    plain.join().unwrap();

    assert_eq!(sched.steps(halted.pid()), halted_steps);
    assert_eq!(
        sched.peek(halted.pid()),
        Observation::Pending(StepKind::CasMark)
    );
    sched.run_to_completion(halted.pid());
    assert!(halted.join());
    assert_eq!(keys(&*list, 0..30), vec![10, 15]);
}

/// Disjoint-key operations must all succeed under every interleaving.
#[test]
fn fr_disjoint_ops_always_succeed() {
    for seed in 0..60u64 {
        let sched = Scheduler::new();
        let list = prefilled::<FrList<u64, u64>>(&sched, [10, 20, 30]);
        let ops = vec![
            spawn(&sched, &list, |l| l.ins(15)),
            spawn(&sched, &list, |l| l.del(20)),
            spawn(&sched, &list, |l| l.ins(25)),
        ];
        random_drive(&sched, &pids(&ops), seed, || {});
        for op in ops {
            assert!(op.join(), "op failed under seed {seed}");
        }
        assert_eq!(keys(&*list, 0..40), vec![10, 15, 25, 30], "seed {seed}");
    }
}

/// Racing inserts of one key: exactly one winner, every interleaving.
#[test]
fn fr_same_key_inserts_single_winner() {
    for seed in 0..60u64 {
        let sched = Scheduler::new();
        let list = prefilled::<FrList<u64, u64>>(&sched, []);
        let ops: Vec<_> = (0..3)
            .map(|_| spawn(&sched, &list, |l| l.ins(42)))
            .collect();
        random_drive(&sched, &pids(&ops), seed, || {});
        let wins = ops.into_iter().map(OpHandle::join).filter(|&w| w).count();
        assert_eq!(wins, 1, "seed {seed}");
        assert_eq!(keys(&*list, 0..50), vec![42], "seed {seed}");
    }
}

/// Racing deletes of one key: exactly one winner, every interleaving.
#[test]
fn fr_same_key_deletes_single_winner() {
    for seed in 0..60u64 {
        let sched = Scheduler::new();
        let list = prefilled::<FrList<u64, u64>>(&sched, [41, 42, 43]);
        let ops: Vec<_> = (0..3)
            .map(|_| spawn(&sched, &list, |l| l.del(42)))
            .collect();
        random_drive(&sched, &pids(&ops), seed, || {});
        let wins = ops.into_iter().map(OpHandle::join).filter(|&w| w).count();
        assert_eq!(wins, 1, "seed {seed}");
        assert_eq!(keys(&*list, 0..50), vec![41, 43], "seed {seed}");
    }
}

/// Insert racing delete of the same key: either order is legal, but
/// the final state must match the op results.
#[test]
fn fr_insert_delete_race_consistent() {
    for seed in 0..80u64 {
        let sched = Scheduler::new();
        let list = prefilled::<FrList<u64, u64>>(&sched, [7]);
        let ins = spawn(&sched, &list, |l| l.ins(8));
        let del = spawn(&sched, &list, |l| l.del(7));
        random_drive(&sched, &[ins.pid(), del.pid()], seed, || {});
        assert!(ins.join(), "insert of fresh key must win (seed {seed})");
        assert!(del.join(), "delete of present key must win (seed {seed})");
        assert_eq!(keys(&*list, 0..10), vec![8], "seed {seed}");
    }
}

/// Insert 15 (pred 10) while deleting 10 and 20 concurrently — the
/// flag/backlink hot path for the FR list — under `seeds` schedules.
fn insert_after_deleted_pred<L: Set>(seeds: u64) {
    for seed in 0..seeds {
        let sched = Scheduler::new();
        let list = prefilled::<L>(&sched, [10, 20]);
        let ops = vec![
            spawn(&sched, &list, |l| l.ins(15)),
            spawn(&sched, &list, |l| l.del(10)),
            spawn(&sched, &list, |l| l.del(20)),
        ];
        random_drive(&sched, &pids(&ops), seed, || {});
        for op in ops {
            assert!(op.join(), "seed {seed}");
        }
        assert_eq!(keys(&*list, 0..30), vec![15], "seed {seed}");
    }
}

/// Adjacent-key operations (the flag/backlink hot path): inserting
/// immediately after a node while it is deleted.
#[test]
fn fr_insert_after_deleted_pred_consistent() {
    insert_after_deleted_pred::<FrList<u64, u64>>(100);
}

/// The same battery against the Harris baseline (its correctness is a
/// prerequisite for using it as a comparator).
#[test]
fn harris_random_interleavings_consistent() {
    insert_after_deleted_pred::<HarrisList<u64, u64>>(60);
}

/// And the no-flag ablation (used by E8) must also be correct — the
/// ablation removes performance guarantees, not correctness.
#[test]
fn noflag_random_interleavings_consistent() {
    insert_after_deleted_pred::<NoFlagList<u64, u64>>(60);
}

/// Model-check the paper's §3.3 invariants: under many random
/// interleavings of conflicting operations, INV 1–5 must hold after
/// **every single shared-memory step**.
#[test]
fn fr_invariants_hold_after_every_step() {
    for seed in 0..40u64 {
        let sched = Scheduler::new();
        let list = prefilled::<FrList<u64, u64>>(&sched, [10, 20, 30, 40]);
        // Conflicting mix: deletes of adjacent keys, inserts between
        // them, a delete/insert collision on 25.
        let ops = vec![
            spawn(&sched, &list, |l| l.del(20)),
            spawn(&sched, &list, |l| l.del(30)),
            spawn(&sched, &list, |l| l.ins(25)),
            spawn(&sched, &list, |l| l.ins(15)),
            spawn(&sched, &list, |l| l.del(40)),
        ];
        random_drive(&sched, &pids(&ops), seed, || list.check_invariants());
        for op in ops {
            assert!(op.join(), "an operation failed under seed {seed}");
        }
        list.check_invariants();
        assert_eq!(keys(&*list, 0..50), vec![10, 15, 25], "seed {seed}");
    }
}

// ---- digit-exact step totals of the paper's fixed schedules ----------
//
// Each schedule's per-kind totals, summed over every process (prefill
// included), in the order of `KINDS`. The expected values were recorded
// from keys-only model lists that took a step at exactly the accesses
// where the shipped lists now call `lf_tagged::step`, so every total
// repeats to the digit; moving, adding or dropping a step call breaks
// one of them.

const KINDS: [StepKind; 8] = [
    StepKind::Read,
    StepKind::Write,
    StepKind::Traverse,
    StepKind::Backlink,
    StepKind::CasInsert,
    StepKind::CasFlag,
    StepKind::CasMark,
    StepKind::CasUnlink,
];

fn totals(sched: &Scheduler) -> [u64; 8] {
    KINDS.map(|k| sched.total_steps_of(k))
}

/// Run `schedule` twice; both runs must produce `expected`.
fn assert_totals_twice(expected: [u64; 8], schedule: impl Fn() -> [u64; 8]) {
    for run in 0..2 {
        assert_eq!(schedule(), expected, "run {run}");
    }
}

/// Fig. 2: delete 2 from [1, 2, 3].
fn three_cas_deletion() -> [u64; 8] {
    let sched = Scheduler::new();
    let list = prefilled::<FrList<u64, u64>>(&sched, [1, 2, 3]);
    assert!(run(&sched, &list, |l| l.del(2)));
    totals(&sched)
}

/// E2's §3.1 round: `q − 1` inserters paused before their C&S while the
/// deleter removes their predecessor, `n` rounds.
fn e2_round<L: Set>(n: u64, q: u64) -> [u64; 8] {
    let sched = Scheduler::new();
    let list = prefilled::<L>(&sched, 1..=n);
    let inserters: Vec<_> = (0..q - 1)
        .map(|i| spawn(&sched, &list, move |l| l.ins(n * 1000 + i + 1)))
        .collect();
    for round in 0..n {
        for ins in &inserters {
            if round > 0 {
                sched.grant(ins.pid(), 1);
            }
            assert!(sched.run_until_pending(ins.pid(), |k| k == StepKind::CasInsert));
        }
        let last = n - round;
        assert!(run(&sched, &list, move |l| l.del(last)));
    }
    for ins in inserters {
        sched.run_to_completion(ins.pid());
        assert!(ins.join());
    }
    totals(&sched)
}

/// E8's stale-predecessor schedule: every deleter of `2, 4, …, 2n`
/// pauses at `pause` (after its search), then fires in key order while
/// a victim inserter waits at the doomed predecessor.
fn e8_schedule<L: Set>(n: u64, pause: StepKind) -> [u64; 8] {
    let sched = Scheduler::new();
    let list = prefilled::<L>(&sched, (1..=n).map(|k| 2 * k));
    let deleters: Vec<_> = (1..=n)
        .map(|k| {
            let d = spawn(&sched, &list, move |l| l.del(2 * k));
            assert!(sched.run_until_pending(d.pid(), |s| s == pause));
            d
        })
        .collect();
    for (d, k) in deleters.into_iter().zip(1..) {
        let v = spawn(&sched, &list, move |l| l.ins(2 * k + 1));
        assert!(sched.run_until_pending(v.pid(), |s| s == StepKind::CasInsert));
        sched.run_to_completion(d.pid());
        assert!(d.join());
        sched.run_to_completion(v.pid());
        assert!(v.join());
    }
    totals(&sched)
}

/// E11 at n = 48: eight deleters halted right after their flagging C&S,
/// then twelve survivors run to completion, then the halted ones are
/// released.
fn e11_halted_deleters() -> [u64; 8] {
    let (n, halted, survivors) = (48u64, 8u64, 12u64);
    let sched = Scheduler::new();
    let list = prefilled::<FrList<u64, u64>>(&sched, 1..=n);
    let stalled: Vec<_> = (0..halted)
        .map(|i| {
            let key = ((i + 1) * n / (halted + 1)).max(1);
            let d = spawn(&sched, &list, move |l| l.del(key));
            assert!(sched.run_until_pending(d.pid(), |k| k == StepKind::CasFlag));
            sched.grant(d.pid(), 1);
            d
        })
        .collect();
    for i in 0..survivors {
        if i % 2 == 0 {
            assert!(run(&sched, &list, move |l| l.ins(n + i + 10)));
        } else {
            run(&sched, &list, move |l| l.del(i % n + 1));
        }
    }
    for d in stalled {
        sched.run_to_completion(d.pid());
        d.join();
    }
    totals(&sched)
}

#[test]
fn three_cas_deletion_totals_are_exact() {
    assert_totals_twice([20, 1, 4, 0, 3, 1, 1, 1], three_cas_deletion);
}

#[test]
fn e2_round_totals_are_exact() {
    assert_totals_twice([806, 16, 273, 32, 50, 16, 16, 16], || {
        e2_round::<FrList<u64, u64>>(16, 3)
    });
    assert_totals_twice([911, 0, 731, 0, 50, 0, 16, 16], || {
        e2_round::<HarrisList<u64, u64>>(16, 3)
    });
    assert_totals_twice([1224, 0, 513, 0, 50, 0, 16, 16], || {
        e2_round::<MichaelList<u64, u64>>(16, 3)
    });
}

/// The E2 round is the first committed check in which the shipped
/// list's C&S attempts fail: the step metrics see the failed insertion
/// C&Ss and the backlink walks that recover from them.
#[test]
fn e2_round_fails_cas_and_walks_backlinks_on_the_shipped_list() {
    let before = lockfree_lists::metrics::snapshot();
    e2_round::<FrList<u64, u64>>(16, 3);
    let delta = lockfree_lists::metrics::snapshot() - before;
    assert!(delta.cas_failures() > 0, "no failed C&S: {delta:?}");
    assert!(delta.backlink_traversals > 0, "no backlink walk: {delta:?}");
}

#[test]
fn e8_schedule_totals_are_exact() {
    assert_totals_twice([1066, 16, 391, 31, 48, 31, 16, 16], || {
        e8_schedule::<FrList<u64, u64>>(16, StepKind::CasFlag)
    });
    assert_totals_twice([1315, 16, 496, 136, 48, 0, 16, 31], || {
        e8_schedule::<NoFlagList<u64, u64>>(16, StepKind::Write)
    });
}

#[test]
fn e11_halted_deleter_totals_are_exact() {
    assert_totals_twice([3414, 15, 1610, 0, 54, 13, 14, 15], e11_halted_deleters);
}
