//! Replay the paper's adversarial interference deterministically, on
//! the shipped lists.
//!
//! Uses the step-machine scheduler to (1) show the three-step deletion
//! of Fig. 2 on `FrList` and (2) run one round of the §3.1 adversary
//! against both the Harris list and the Fomitchev–Ruppert list,
//! printing how many steps each inserter needs to recover. Every
//! operation is a scheduler process running on its own per-thread
//! handle.
//!
//! ```sh
//! cargo run --example adversary_replay
//! ```

use std::sync::Arc;

use lockfree_lists::baselines::HarrisList;
use lockfree_lists::sched::{OpHandle, Scheduler, StepKind};
use lockfree_lists::{ConcurrentMap, FrList, MapHandle};

/// One §3.1 round on a list with keys `1..=n`: an inserter of `n + 10`
/// paused right before its C&S while `n` — its predecessor — is deleted
/// out from under it. Returns the inserter's recovery cost in steps.
fn recovery<M: ConcurrentMap<Key = u64, Value = u64> + 'static>(n: u64, list: M) -> u64 {
    let sched = Scheduler::new();
    let list = Arc::new(list);
    // Each op a process on its own handle: insert `k → k`, or delete `k`.
    let spawn = |insert: bool, k: u64| -> OpHandle<bool> {
        let l = list.clone();
        sched.spawn(move |_| {
            let h = l.handle();
            if insert {
                h.insert(k, k).is_ok()
            } else {
                h.remove_with(&k, |_| ()).is_some()
            }
        })
    };
    for k in 1..=n {
        let op = spawn(true, k);
        sched.run_to_completion(op.pid());
        assert!(op.join());
    }
    let ins = spawn(true, n + 10);
    assert!(sched.run_until_pending(ins.pid(), |k| k == StepKind::CasInsert));
    let before = sched.steps(ins.pid());
    let del = spawn(false, n);
    sched.run_to_completion(del.pid());
    assert!(del.join());
    sched.run_to_completion(ins.pid());
    let pid = ins.pid();
    assert!(ins.join());
    sched.steps(pid) - before
}

fn main() {
    // ---- Fig. 2: watch a deletion go flag -> mark -> unlink --------
    println!("deleting 2 from [1, 2, 3]:");
    let sched = Scheduler::new();
    let list = Arc::new(FrList::<u64, u64>::new());
    for k in [1, 2, 3] {
        let l = list.clone();
        let op = sched.spawn(move |_| l.handle().insert(k, k).is_ok());
        sched.run_to_completion(op.pid());
        assert!(op.join());
    }
    let l = list.clone();
    let del = sched.spawn(move |_| l.handle().remove(&2).is_some());
    for expected in [StepKind::CasFlag, StepKind::CasMark, StepKind::CasUnlink] {
        assert!(sched.run_until_pending(del.pid(), |k| k.is_cas()));
        println!("  next C&S: {expected:?}");
        sched.grant(del.pid(), 1);
    }
    sched.run_to_completion(del.pid());
    assert!(del.join());
    let keys: Vec<u64> = list.dump().into_iter().filter_map(|(k, _, _)| k).collect();
    println!("  final keys: {keys:?}\n");

    // ---- one §3.1 round against each design ------------------------
    let n = 50;
    for flavour in ["harris", "fomitchev-ruppert"] {
        println!("{flavour}: {n}-element list, inserter paused before its C&S,");
        println!("  then the last node is deleted out from under it...");
        let steps = match flavour {
            "harris" => recovery(n, HarrisList::new()),
            _ => recovery(n, FrList::new()),
        };
        println!("  recovery cost: {steps} steps\n");
    }
    println!("Harris restarts from the head (cost ~ list length); the FR list");
    println!("follows one backlink. Scale this to every round of every");
    println!("operation and you get the paper's O(n*c) vs O(n + c) separation");
    println!("(run `cargo run -p lf-bench --release --bin experiments -- e2`).");
}
