//! E11 — lock-freedom under process failures (paper §1).
//!
//! "An implementation of a shared-memory object is lock-free if a
//! finite number of steps taken by any process guarantees the
//! completion of some operation. If an implementation is lock-free,
//! delays or failures of individual processes do not block the
//! progress of other processes in the system."
//!
//! The deterministic scheduler makes this testable: we **halt**
//! processes at the worst possible moments — immediately after their
//! flagging C&S (the FR list's closest analogue to "holding a lock") —
//! and verify that a fresh wave of operations still completes, with
//! bounded extra work. The lock-based baselines cannot pass this test
//! even conceptually: a halted lock holder blocks everyone forever.
//! The list is the shipped `FrList`, each operation a scheduler
//! process on its own per-thread handle.

use lf_core::FrList;
use lf_sched::{Scheduler, StepKind};

use super::{prefilled, spawn_op};
use crate::table::{fmt_f, Table};

struct Outcome {
    /// Steps the survivors needed with `halted` processes stalled.
    survivor_steps: u64,
    survivor_ops: u64,
}

/// `n` keys; `halted` deleters are stopped right after their flag C&S
/// lands; then `survivors` fresh operations (mixed insert/delete) must
/// all complete.
fn run_with_failures(n: u64, halted: u64, survivors: u64) -> Outcome {
    let sched = Scheduler::new();
    let list = prefilled(&sched, FrList::new(), 1..=n);

    // Halt deleters immediately after their flagging C&S: their victims'
    // predecessors are left flagged — the most obstructive lock-free
    // state an operation can abandon.
    let stalled: Vec<_> = (0..halted)
        .map(|i| {
            // Spread victims across the list.
            let key = ((i + 1) * n / (halted + 1)).max(1);
            let d = spawn_op(&sched, &list, move |h| h.remove(&key).is_some());
            let paused = sched.run_until_pending(d.pid(), |k| k == StepKind::CasFlag);
            assert!(paused, "deleter finished before flagging");
            sched.grant(d.pid(), 1); // execute the flag C&S, then never again
            d
        })
        .collect();

    // A fresh wave of operations must all complete despite the stalls
    // (they help the abandoned deletions through).
    let ops: Vec<_> = (0..survivors)
        .map(|i| {
            if i % 2 == 0 {
                let key = n + i + 10;
                spawn_op(&sched, &list, move |h| h.insert(key, key).is_ok())
            } else {
                spawn_op(&sched, &list, move |h| {
                    h.remove(&(i % n + 1));
                    true
                })
            }
        })
        .collect();
    let mut survivor_steps = 0;
    for op in ops {
        sched.run_to_completion(op.pid());
        survivor_steps += sched.steps(op.pid());
        assert!(op.join(), "survivor operation blocked by halted process");
    }

    // Release the stalled threads only to let the program exit; their
    // operations were already completed *for* them by helpers.
    for d in stalled {
        sched.run_to_completion(d.pid());
        d.join();
    }

    Outcome {
        survivor_steps,
        survivor_ops: survivors,
    }
}

/// Print the failure-injection table.
pub fn run(quick: bool) {
    println!("E11: lock-freedom — progress despite halted processes (paper §1)");
    println!("    deleters halted right after their flagging C&S; a fresh wave");
    println!("    of operations must still complete (by helping).\n");

    let n = if quick { 64 } else { 128 };
    let survivors = if quick { 16 } else { 32 };
    let halted_counts: &[u64] = if quick {
        &[0, 1, 4, 8]
    } else {
        &[0, 1, 4, 8, 16]
    };

    let mut table = Table::new([
        "halted deleters",
        "survivor ops",
        "all completed",
        "survivor steps",
        "steps/op",
        "overhead vs 0 halted",
    ]);
    let mut baseline = 0.0;
    for &h in halted_counts {
        let out = run_with_failures(n, h, survivors);
        let per_op = out.survivor_steps as f64 / out.survivor_ops as f64;
        if h == 0 {
            baseline = per_op;
        }
        table.row([
            h.to_string(),
            out.survivor_ops.to_string(),
            "yes".to_string(),
            out.survivor_steps.to_string(),
            fmt_f(per_op),
            format!("{:+.2}", per_op - baseline),
        ]);
    }
    print!("{table}");
    println!(
        "\npaper claim: failures of individual processes do not block others;\n\
         the overhead of helping each abandoned deletion through is a\n\
         constant number of steps per halted process, spread across the\n\
         survivors — not a blocked system."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn survivors_complete_with_many_halted_processes() {
        let out = run_with_failures(48, 8, 12);
        assert_eq!(out.survivor_ops, 12);
    }

    #[test]
    fn helping_overhead_is_bounded() {
        let clean = run_with_failures(48, 0, 12);
        let hurt = run_with_failures(48, 8, 12);
        let clean_per = clean.survivor_steps as f64 / clean.survivor_ops as f64;
        let hurt_per = hurt.survivor_steps as f64 / hurt.survivor_ops as f64;
        // Helping 8 abandoned deletions costs far less than one full
        // re-traversal per op.
        assert!(
            hurt_per < clean_per + 48.0,
            "helping overhead too large: {clean_per} -> {hurt_per}"
        );
    }
}
