//! E8 — flag-bit ablation (§3.1 design rationale), deterministic.
//!
//! "The problem is that long chains of backlinks can be traversed by
//! the same process many times. This happens when these chains grow
//! towards the right, i.e. when backlink pointers are set to marked
//! nodes." Flag bits make that impossible: a backlink is set under the
//! protection of the predecessor's flag, so it always targets a node
//! that was unmarked when the link was created.
//!
//! The adversarial schedule: the list holds even keys `2,4,…,2n`. All
//! `n` deleters **search first** (capturing their live predecessors),
//! then fire one per round in ascending key order — so deleter `k`
//! stores its backlink to a predecessor that has since been *marked*.
//! Without flags the backlinks of `2k` form a chain `2k → 2k−2 → … →
//! 2`, and the round-`k` victim (an inserter positioned at `2k`) walks
//! all `k−1` links: `Θ(n²)` backlink traversals in total. With flags,
//! the stale flagging C&S fails, the deleter relocates, and every
//! backlink targets a live node — each victim walks `O(1)` links.
//!
//! Both flavours are the shipped lists (`FrList` and the `NoFlagList`
//! baseline), each operation a scheduler process on its own handle.

use lf_baselines::NoFlagList;
use lf_core::{ConcurrentMap, FrList, MapHandle};
use lf_sched::{Scheduler, StepKind};

use super::{prefilled, spawn_op};
use crate::table::{fmt_f, Table};

struct Outcome {
    victim_backlinks_total: u64,
    victim_backlinks_max: u64,
}

/// The schedule over `list` (fresh); `pause` is the step at which a
/// deleter has finished its search but not yet recorded or claimed its
/// predecessor (the flagging C&S with flags, the backlink store
/// without).
fn run_schedule<M>(list: M, n: u64, pause: StepKind) -> Outcome
where
    M: ConcurrentMap<Key = u64, Value = u64> + 'static,
{
    let sched = Scheduler::new();
    // Even keys 2..=2n.
    let list = prefilled(&sched, list, (1..=n).map(|k| 2 * k));

    // All deleters search up-front, capturing live predecessors.
    let deleters: Vec<_> = (1..=n)
        .map(|k| {
            let key = 2 * k;
            let d = spawn_op(&sched, &list, move |h| {
                h.remove_with(&key, |_| ()).is_some()
            });
            let paused = sched.run_until_pending(d.pid(), |s| s == pause);
            assert!(paused, "deleter of {key} finished early");
            d
        })
        .collect();

    // Rounds: position a victim inserter at the doomed predecessor,
    // fire the deleter (its captured predecessor is now stale), then
    // make the victim recover.
    let mut total = 0u64;
    let mut max = 0u64;
    for (d, k) in deleters.into_iter().zip(1u64..) {
        let key = 2 * k + 1;
        let v = spawn_op(&sched, &list, move |h| h.insert(key, key).is_ok());
        let paused = sched.run_until_pending(v.pid(), |s| s == StepKind::CasInsert);
        assert!(paused, "victim {key} finished early");

        sched.run_to_completion(d.pid());
        assert!(d.join(), "deletion of {} failed", 2 * k);

        sched.run_to_completion(v.pid());
        let walked = sched.steps_of(v.pid(), StepKind::Backlink);
        assert!(v.join(), "victim insert {key} failed");
        total += walked;
        max = max.max(walked);
    }

    Outcome {
        victim_backlinks_total: total,
        victim_backlinks_max: max,
    }
}

fn fr(n: u64) -> Outcome {
    run_schedule(FrList::new(), n, StepKind::CasFlag)
}

fn noflag(n: u64) -> Outcome {
    run_schedule(NoFlagList::new(), n, StepKind::Write)
}

/// Print the ablation table.
pub fn run(quick: bool) {
    println!("E8: flag-bit ablation under the stale-predecessor schedule");
    println!("    (deleters search before their predecessors die, fire after)\n");
    let sizes: &[u64] = if quick {
        &[8, 16, 32, 64]
    } else {
        &[8, 16, 32, 64, 128, 256]
    };

    let mut table = Table::new([
        "n (rounds)",
        "fr victim backlinks",
        "noflag victim backlinks",
        "ratio",
        "fr worst round",
        "noflag worst round",
    ]);
    for &n in sizes {
        let (f, nf) = (fr(n), noflag(n));
        table.row([
            n.to_string(),
            f.victim_backlinks_total.to_string(),
            nf.victim_backlinks_total.to_string(),
            fmt_f(nf.victim_backlinks_total as f64 / f.victim_backlinks_total.max(1) as f64),
            f.victim_backlinks_max.to_string(),
            nf.victim_backlinks_max.to_string(),
        ]);
    }
    print!("{table}");
    println!(
        "\npaper claim: with flags, backlinks always target nodes that were\n\
         unmarked when set, so per-victim recovery is O(1) links (total\n\
         linear); without flags the chain grows rightwards and the totals\n\
         grow quadratically — the ratio column should grow with n."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noflag_chains_grow_quadratically_fr_stays_linear() {
        let (fr1, fr2) = (fr(16), fr(32));
        let (nf1, nf2) = (noflag(16), noflag(32));
        // FR per-victim walk is O(1): totals scale ~linearly.
        assert!(
            fr2.victim_backlinks_total <= 3 * fr1.victim_backlinks_total.max(1),
            "fr {} -> {}",
            fr1.victim_backlinks_total,
            fr2.victim_backlinks_total
        );
        // No-flag totals scale ~quadratically.
        assert!(
            nf2.victim_backlinks_total >= 3 * nf1.victim_backlinks_total,
            "noflag {} -> {}",
            nf1.victim_backlinks_total,
            nf2.victim_backlinks_total
        );
        // And the worst single recovery is the whole chain.
        assert!(nf2.victim_backlinks_max >= 16);
        assert!(fr2.victim_backlinks_max <= 4);
    }
}
