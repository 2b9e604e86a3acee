//! E2 — the §3.1 adversarial execution, replayed deterministically.
//!
//! Setup: `n` keys in the list; one deleter process repeatedly deletes
//! the last node; `q − 1` inserter processes try to insert new keys at
//! the end of the list. In every round the adversary lets each
//! inserter run **until it is about to execute its insertion C&S**,
//! then runs the deletion of the current last node to completion, then
//! resumes the inserters (whose C&S now fails).
//!
//! The processes run the shipped lists — `FrList` and the Harris and
//! Michael baselines — each operation on its own per-thread handle.
//!
//! Paper claim: Harris's list does `Ω(q·n²)` total work (every failed
//! inserter restarts from the head), i.e. `Ω(n̄·c̄)` per operation,
//! while the Fomitchev–Ruppert list recovers through backlinks for
//! `O(c)` extra steps per failure, keeping the average `O(n̄ + c̄)`.

use lf_baselines::{HarrisList, MichaelList};
use lf_core::{ConcurrentMap, FrList, MapHandle};
use lf_sched::{Scheduler, StepKind};

use super::{prefilled, run_op, spawn_op};
use crate::table::{fmt_f, Table};

struct AdvOutcome {
    total_steps: u64,
    inserter_steps: u64,
    ops: u64,
}

/// Run the adversarial schedule on `list` (fresh) with `n` initial keys
/// and `q` processes (`q − 1` inserters + 1 deleter role).
fn run_adversary<M>(list: M, n: u64, q: u64) -> AdvOutcome
where
    M: ConcurrentMap<Key = u64, Value = u64> + 'static,
{
    assert!(q >= 2);
    let sched = Scheduler::new();

    // Prefill keys 1..=n (not counted in the measured steps: snapshot
    // total after this phase).
    let list = prefilled(&sched, list, 1..=n);
    let prefill_steps = sched.total_steps();

    // Spawn the q-1 inserters; their keys sit beyond every prefilled key.
    let inserters: Vec<_> = (0..q - 1)
        .map(|i| {
            let key = n * 1000 + i + 1;
            spawn_op(&sched, &list, move |h| h.insert(key, key).is_ok())
        })
        .collect();

    // Rounds: pause every inserter right before its insertion C&S, then
    // delete the current last node to completion.
    for round in 0..n {
        for ins in &inserters {
            if round > 0 {
                // Execute the C&S the adversary doomed last round; the
                // process then recovers (backlinks) or restarts (from
                // the head) and walks to its next insertion attempt.
                sched.grant(ins.pid(), 1);
            }
            let paused = sched.run_until_pending(ins.pid(), |k| k == StepKind::CasInsert);
            assert!(paused, "inserter finished early (round {round})");
        }
        let last_key = n - round;
        let removed = run_op(&sched, &list, move |h| {
            h.remove_with(&last_key, |_| ()).is_some()
        });
        assert!(removed, "adversary failed to delete key {last_key}");
    }

    // Let the inserters finish on the now-empty list.
    let mut inserter_steps = 0;
    for ins in inserters {
        sched.run_to_completion(ins.pid());
        inserter_steps += sched.steps(ins.pid());
        assert!(ins.join(), "inserter ultimately failed");
    }

    AdvOutcome {
        total_steps: sched.total_steps() - prefill_steps,
        inserter_steps,
        ops: q - 1 + n,
    }
}

/// Print the comparison table.
pub fn run(quick: bool) {
    println!("E2: Section 3.1 adversarial schedule — Harris vs Fomitchev-Ruppert");
    println!("    q-1 inserters paused before their C&S; deleter removes their");
    println!("    predecessor each round. steps/op = total essential steps / ops.\n");

    let ns: &[u64] = if quick {
        &[16, 32, 64]
    } else {
        &[16, 32, 64, 128, 256]
    };
    let qs: &[u64] = if quick { &[2, 4] } else { &[2, 4, 8] };

    let mut table = Table::new([
        "n",
        "q",
        "harris ins",
        "michael ins",
        "fr ins",
        "harris/fr",
        "michael/fr",
        "harris steps/op",
        "michael steps/op",
        "fr steps/op",
    ]);
    for &q in qs {
        for &n in ns {
            let h = run_adversary(HarrisList::new(), n, q);
            let m = run_adversary(MichaelList::new(), n, q);
            let f = run_adversary(FrList::new(), n, q);
            table.row([
                n.to_string(),
                q.to_string(),
                h.inserter_steps.to_string(),
                m.inserter_steps.to_string(),
                f.inserter_steps.to_string(),
                fmt_f(h.inserter_steps as f64 / f.inserter_steps.max(1) as f64),
                fmt_f(m.inserter_steps as f64 / f.inserter_steps.max(1) as f64),
                fmt_f(h.total_steps as f64 / h.ops as f64),
                fmt_f(m.total_steps as f64 / m.ops as f64),
                fmt_f(f.total_steps as f64 / f.ops as f64),
            ]);
        }
    }
    print!("{table}");
    println!(
        "\npaper claim: Harris- and Michael-style inserters re-search the whole \
         list every round (quadratic growth in n); FR inserters recover via \
         backlinks (linear). Both ratio columns should grow with n."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn separation_visible_at_small_sizes() {
        let h = run_adversary(HarrisList::new(), 24, 3);
        let f = run_adversary(FrList::new(), 24, 3);
        assert!(
            h.inserter_steps > 3 * f.inserter_steps,
            "harris {} vs fr {}",
            h.inserter_steps,
            f.inserter_steps
        );
    }

    #[test]
    fn inserter_cost_grows_quadratically_for_harris_only() {
        let h1 = run_adversary(HarrisList::new(), 16, 2);
        let h2 = run_adversary(HarrisList::new(), 32, 2);
        let f1 = run_adversary(FrList::new(), 16, 2);
        let f2 = run_adversary(FrList::new(), 32, 2);
        let h_growth = h2.inserter_steps as f64 / h1.inserter_steps as f64;
        let f_growth = f2.inserter_steps as f64 / f1.inserter_steps as f64;
        // Doubling n should ~4x Harris's inserter work but ~2x or less FR's.
        assert!(h_growth > 3.0, "harris growth {h_growth}");
        assert!(f_growth < 3.0, "fr growth {f_growth}");
    }
}
