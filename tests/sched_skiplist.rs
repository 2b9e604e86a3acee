//! Deterministic exploration of the shipped skip list's hardest
//! interleavings (paper §4): interrupted tower constructions,
//! superfluous-tower cleanup by searches, and per-step invariant
//! validation. Towers get scripted heights so every schedule is exact.

use std::sync::Arc;

use lockfree_lists::sched::{Observation, OpHandle, Scheduler, StepKind};
use lockfree_lists::SkipList;

/// Eight levels: towers of height 1..=7, as the schedules below assume.
type Sl = SkipList<u64, u64>;

fn new_list() -> Arc<Sl> {
    Arc::new(SkipList::with_max_level(8))
}

fn insert(sched: &Scheduler, sl: &Arc<Sl>, k: u64, height: u32) -> OpHandle<bool> {
    let s = sl.clone();
    sched.spawn(move |_| s.handle().insert_with_height(k, k, height).is_ok())
}

fn delete(sched: &Scheduler, sl: &Arc<Sl>, k: u64) -> OpHandle<bool> {
    let s = sl.clone();
    sched.spawn(move |_| s.remove(&k).is_some())
}

fn contains(sched: &Scheduler, sl: &Arc<Sl>, k: u64) -> OpHandle<bool> {
    let s = sl.clone();
    sched.spawn(move |_| s.contains(&k))
}

fn run_to_end<R: Send + 'static>(sched: &Scheduler, op: OpHandle<R>) -> R {
    sched.run_to_completion(op.pid());
    op.join()
}

/// Run `pid` until it is about to take its `nth` step of `kind`.
fn pause_before_nth(sched: &Scheduler, pid: usize, kind: StepKind, nth: u64) {
    loop {
        assert!(
            sched.run_until_pending(pid, |k| k == kind),
            "finished before {kind:?} #{nth}"
        );
        if sched.steps_of(pid, kind) + 1 == nth {
            return;
        }
        sched.grant(pid, 1);
    }
}

fn prefill(sched: &Scheduler, sl: &Arc<Sl>, towers: &[(u64, u32)]) {
    for &(k, h) in towers {
        assert!(run_to_end(sched, insert(sched, sl, k, h)));
    }
}

/// Keys of the unmarked nodes at level 1.
fn keys(sl: &Sl) -> Vec<u64> {
    sl.dump()[0]
        .iter()
        .filter_map(|&(k, marked, _)| k.filter(|_| !marked))
        .collect()
}

/// The highest level at which an unmarked node of `key`'s tower is
/// still linked (0 if none).
fn linked_height_of(sl: &Sl, key: u64) -> usize {
    sl.dump()
        .iter()
        .rposition(|level| {
            level
                .iter()
                .any(|&(k, marked, _)| k == Some(key) && !marked)
        })
        .map_or(0, |i| i + 1)
}

/// Drive `ops` to completion in an LCG order (`x → x·a + c`, started at
/// `x0`), checking the invariants after every step when `check`.
fn random_drive<R>(sched: &Scheduler, sl: &Sl, ops: &[OpHandle<R>], x0: u64, c: u64, check: bool) {
    let mut live: Vec<usize> = ops.iter().map(OpHandle::pid).collect();
    let mut x = x0;
    while !live.is_empty() {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(c);
        let idx = ((x >> 33) as usize) % live.len();
        let pid = live[idx];
        match sched.peek(pid) {
            Observation::Finished => {
                live.swap_remove(idx);
            }
            Observation::Pending(_) => {
                sched.grant(pid, 1);
                if check {
                    sl.check_invariants();
                }
            }
        }
    }
}

#[test]
fn sequential_tower_operations() {
    let sched = Scheduler::new();
    let sl = new_list();
    prefill(&sched, &sl, &[(10, 3), (20, 1), (30, 5), (40, 2)]);
    sl.check_invariants();
    assert_eq!(keys(&sl), vec![10, 20, 30, 40]);
    assert_eq!(linked_height_of(&sl, 10), 3);
    assert_eq!(linked_height_of(&sl, 30), 5);

    assert!(run_to_end(&sched, delete(&sched, &sl, 30)));
    sl.check_invariants();
    assert_eq!(keys(&sl), vec![10, 20, 40]);
    // The whole tower is dismantled, not just the root.
    assert_eq!(linked_height_of(&sl, 30), 0);

    assert!(run_to_end(&sched, contains(&sched, &sl, 10)));
    assert!(!run_to_end(&sched, contains(&sched, &sl, 30)));
    sl.validate_quiescent();
}

/// Paper §4: "while a process P is constructing a tower Q, Q's root
/// node can get marked by another process, and P can add a new node to
/// Q before it notices the marking." Script exactly that and verify
/// the insert undoes its orphan node so no superfluous debris remains.
fn interrupted_construction() -> [u64; 8] {
    let sched = Scheduler::new();
    let sl = new_list();
    prefill(&sched, &sl, &[(10, 2), (30, 2)]);

    // The inserter builds a tall tower for 20; pause it right before it
    // links level 2 (its second insertion C&S).
    let ins = insert(&sched, &sl, 20, 5);
    pause_before_nth(&sched, ins.pid(), StepKind::CasInsert, 2);

    // A deleter removes key 20 — marking the root mid-construction.
    assert!(run_to_end(&sched, delete(&sched, &sl, 20)));
    sl.check_invariants();
    assert!(!keys(&sl).contains(&20));

    // Resume the inserter: it links its level-2 node into a superfluous
    // tower, must notice the marked root, and delete the node again.
    assert!(
        run_to_end(&sched, ins),
        "interrupted insert still reports success"
    );
    sl.check_invariants();
    assert_eq!(keys(&sl), vec![10, 30]);
    assert_eq!(
        linked_height_of(&sl, 20),
        0,
        "superfluous debris left behind"
    );
    sl.validate_quiescent();
    totals(&sched)
}

#[test]
fn interrupted_construction_cleans_up() {
    interrupted_construction();
}

/// A search passing a superfluous tower must physically delete it (§4:
/// searches help deletions so backlink chains cannot be re-traversed).
fn search_cleaning() -> [u64; 8] {
    let sched = Scheduler::new();
    let sl = new_list();
    prefill(&sched, &sl, &[(10, 1), (20, 4), (30, 1)]);

    // Delete 20 but halt the deleter immediately after the root's mark
    // lands (upper levels stay linked: a superfluous tower).
    let del = delete(&sched, &sl, 20);
    assert!(sched.run_until_pending(del.pid(), |k| k == StepKind::CasMark));
    sched.grant(del.pid(), 1); // root marked; leave the deleter stalled
    assert!(linked_height_of(&sl, 20) >= 2, "upper levels should remain");

    // An unrelated search for a larger key sweeps past the superfluous
    // tower on its way down and must dismantle it.
    assert!(run_to_end(&sched, contains(&sched, &sl, 30)));
    sl.check_invariants();
    assert_eq!(
        linked_height_of(&sl, 20),
        0,
        "search left superfluous nodes"
    );

    // Unstall the deleter; it still owns (and reports) the deletion.
    assert!(run_to_end(&sched, del));
    sl.check_invariants();
    assert_eq!(keys(&sl), vec![10, 30]);
    sl.validate_quiescent();
    totals(&sched)
}

#[test]
fn search_cleans_superfluous_towers() {
    search_cleaning();
}

/// An upper-level insertion C&S that fails on a flagged predecessor,
/// helps that deletion, and then walks a backlink because its
/// predecessor got marked meanwhile.
///
/// Towers 10, 15 and 25 have height 2; the inserter of 20 (height 2)
/// pauses before linking level 2 between 15 and 25. Deleter A removes
/// 25 and halts right after flagging 15 at level 2. Deleter B removes
/// 15 and halts right after its level-2 marking C&S fails on that flag.
/// The inserter's C&S then fails on the flag; it helps A's deletion
/// through to the unlink and pauses. B marks and unlinks 15, so the
/// inserter's recovery finds 15 marked and follows its backlink to 10.
fn flagged_upper_insert() -> [u64; 8] {
    let sched = Scheduler::new();
    let sl = new_list();
    prefill(&sched, &sl, &[(10, 2), (15, 2), (25, 2)]);

    let ins = insert(&sched, &sl, 20, 2);
    pause_before_nth(&sched, ins.pid(), StepKind::CasInsert, 2);

    // A: root deletion flags at level 1, the dismantling search flags
    // 15's level-2 node (its second flagging C&S).
    let a = delete(&sched, &sl, 25);
    pause_before_nth(&sched, a.pid(), StepKind::CasFlag, 2);
    sched.grant(a.pid(), 1);

    // B: its second marking C&S targets 15's level-2 node, which A's
    // flag freezes, so it fails.
    let b = delete(&sched, &sl, 15);
    pause_before_nth(&sched, b.pid(), StepKind::CasMark, 2);
    sched.grant(b.pid(), 1);

    // The inserter's C&S fails on the flag; it helps through A's unlink
    // and stops before its recovery walk reads 15's mark.
    sched.grant(ins.pid(), 1);
    pause_before_nth(&sched, ins.pid(), StepKind::CasUnlink, 1);
    sched.grant(ins.pid(), 1);
    assert!(run_to_end(&sched, b));
    let ins_pid = ins.pid();
    assert!(run_to_end(&sched, ins));
    assert!(run_to_end(&sched, a));

    // Two levels linked in three insertion C&Ss: one failed.
    assert_eq!(sched.steps_of(ins_pid, StepKind::CasInsert), 3);
    assert!(sched.steps_of(ins_pid, StepKind::Backlink) >= 1);
    sl.check_invariants();
    assert_eq!(keys(&sl), vec![10, 20]);
    assert_eq!(linked_height_of(&sl, 20), 2);
    sl.validate_quiescent();
    totals(&sched)
}

/// Random interleavings of conflicting tower operations, validating
/// all per-level invariants after every single step.
#[test]
fn skiplist_invariants_hold_after_every_step() {
    for seed in 0..25u64 {
        let sched = Scheduler::new();
        let sl = new_list();
        prefill(&sched, &sl, &[(10, 2), (20, 3), (30, 1), (40, 4)]);
        let ops = vec![
            delete(&sched, &sl, 20),
            insert(&sched, &sl, 25, 3),
            delete(&sched, &sl, 40),
            insert(&sched, &sl, 15, 2),
        ];
        random_drive(&sched, &sl, &ops, seed | 1, 1442695040888963407, true);
        for op in ops {
            assert!(op.join(), "operation failed under seed {seed}");
        }
        sl.check_invariants();
        assert_eq!(keys(&sl), vec![10, 15, 25, 30], "seed {seed}");
        sl.validate_quiescent();
    }
}

/// Duplicate-key races on towers: one winner, invariants preserved.
#[test]
fn skiplist_same_key_insert_race() {
    for seed in 0..30u64 {
        let sched = Scheduler::new();
        let sl = new_list();
        let ops = vec![
            insert(&sched, &sl, 42, 3),
            insert(&sched, &sl, 42, 1),
            insert(&sched, &sl, 42, 5),
        ];
        random_drive(
            &sched,
            &sl,
            &ops,
            seed.wrapping_mul(0x9E3779B97F4A7C15) | 1,
            1,
            false,
        );
        let wins = ops.into_iter().map(OpHandle::join).filter(|&w| w).count();
        assert_eq!(wins, 1, "seed {seed}");
        sl.check_invariants();
        assert_eq!(keys(&sl), vec![42], "seed {seed}");
    }
}

/// Two deleters race on one tall tower: one winner, tower fully
/// dismantled, under many interleavings.
#[test]
fn skiplist_delete_race_single_winner() {
    for seed in 0..30u64 {
        let sched = Scheduler::new();
        let sl = new_list();
        prefill(&sched, &sl, &[(10, 1), (20, 5), (30, 2)]);
        let ops = vec![delete(&sched, &sl, 20), delete(&sched, &sl, 20)];
        random_drive(
            &sched,
            &sl,
            &ops,
            seed.wrapping_mul(0xD1B54A32D192ED03) | 1,
            11,
            false,
        );
        let wins = ops.into_iter().map(OpHandle::join).filter(|&w| w).count();
        assert_eq!(wins, 1, "seed {seed}");
        sl.check_invariants();
        assert_eq!(keys(&sl), vec![10, 30], "seed {seed}");
        assert_eq!(linked_height_of(&sl, 20), 0, "tower debris, seed {seed}");
    }
}

/// A search descends through a tall tower while a deleter dismantles
/// it: the search must terminate with the correct answer for its own
/// key and leave the invariants intact.
#[test]
fn skiplist_search_during_dismantle() {
    for pause_after in 0..20u64 {
        let sched = Scheduler::new();
        let sl = new_list();
        prefill(&sched, &sl, &[(10, 6), (20, 6), (30, 1)]);
        // Searcher for 30 starts descending (its path passes tower 20),
        // pauses after a few steps.
        let searcher = contains(&sched, &sl, 30);
        for _ in 0..pause_after {
            match sched.peek(searcher.pid()) {
                Observation::Finished => break,
                Observation::Pending(_) => sched.grant(searcher.pid(), 1),
            }
        }
        // Deleter dismantles tower 20 completely.
        assert!(run_to_end(&sched, delete(&sched, &sl, 20)));
        // Searcher resumes and must still find 30.
        assert!(
            run_to_end(&sched, searcher),
            "search lost its key (pause {pause_after})"
        );
        sl.check_invariants();
        assert_eq!(keys(&sl), vec![10, 30]);
    }
}

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

/// Per-`StepKind` totals (in `KINDS` order) of the contended schedules
/// above, to the digit: moving, adding or dropping a `step(..)` call on
/// the skip list's paths fails this.
#[test]
fn skiplist_schedule_totals_are_exact() {
    assert_totals_twice([46, 2, 6, 0, 6, 2, 2, 2], interrupted_construction);
    assert_totals_twice([71, 5, 5, 0, 6, 4, 4, 5], search_cleaning);
    assert_totals_twice([101, 6, 17, 1, 9, 4, 5, 6], flagged_upper_insert);
}
