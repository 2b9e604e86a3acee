//! E1 — Fig. 2: deletion is exactly flag → mark → physically delete.
//!
//! Replays a deletion on the shipped `FrList` step-by-step on the
//! deterministic scheduler and prints the successor-field states after
//! every essential step, reproducing the three panels of the paper's
//! Figure 2.

use lf_core::{FrList, MapHandle};
use lf_sched::{Observation, Scheduler, StepKind};

use super::{prefilled, spawn_op};
use crate::table::Table;

fn render_state(dump: &[(Option<u64>, bool, bool)]) -> String {
    let mut s = String::new();
    for (i, (key, mark, flag)) in dump.iter().enumerate() {
        if i > 0 {
            s.push_str(" -> ");
        }
        let label = match key {
            None if i == 0 => "head".to_string(),
            None => "tail".to_string(),
            Some(k) => k.to_string(),
        };
        let tag = match (mark, flag) {
            (true, _) => "[X]", // marked (crossed in Fig. 2)
            (_, true) => "[F]", // flagged (shaded in Fig. 2)
            _ => "",
        };
        s.push_str(&label);
        s.push_str(tag);
    }
    s
}

/// Print the Fig. 2 trace.
pub fn run(_quick: bool) {
    println!("E1: three-step deletion trace (paper Fig. 2)");
    println!("    deleting key 2 from head -> 1 -> 2 -> 3 -> tail");
    println!("    [F] = successor field flagged, [X] = marked\n");

    let sched = Scheduler::new();
    let list = prefilled(&sched, FrList::new(), [1, 2, 3]);
    let op = spawn_op(&sched, &list, |h| h.remove(&2).is_some());
    let pid = op.pid();

    let mut table = Table::new(["step", "pending action", "list state after step"]);
    let mut step_no = 0u32;
    let mut cas_seen = Vec::new();
    loop {
        match sched.peek(pid) {
            Observation::Finished => break,
            Observation::Pending(kind) => {
                // The grant returns once the step has landed.
                sched.grant(pid, 1);
                step_no += 1;
                if kind.is_cas() {
                    cas_seen.push(kind);
                }
                let marker = match kind {
                    StepKind::CasFlag => "C&S flag predecessor   <- step 1",
                    StepKind::CasMark => "C&S mark node          <- step 2",
                    StepKind::CasUnlink => "C&S physical delete    <- step 3",
                    StepKind::Write => "set backlink",
                    StepKind::Backlink => "follow backlink",
                    StepKind::Traverse => "advance traversal",
                    StepKind::Read => "read shared field",
                    StepKind::CasInsert => "C&S insert",
                };
                table.row([
                    step_no.to_string(),
                    marker.to_string(),
                    render_state(&list.dump()),
                ]);
            }
        }
    }
    let ok = op.join();
    print!("{table}");
    println!(
        "\nresult: deletion {} after {} steps; C&S order: {:?}",
        if ok { "succeeded" } else { "failed" },
        step_no,
        cas_seen
    );
    assert_eq!(
        cas_seen,
        vec![StepKind::CasFlag, StepKind::CasMark, StepKind::CasUnlink],
        "three-step protocol violated"
    );
    println!("paper claim: deletion uses exactly 3 C&S in flag/mark/unlink order — CONFIRMED");
}
