//! E4 — list throughput: FR vs Harris vs no-flag vs lock-based lists.
//!
//! The §2 comparison made empirical: operations per second under two
//! standard mixes across thread counts. Lock-free lists should hold or
//! improve throughput as threads grow; the coarse lock serializes.

use lf_baselines::{CoarseLockList, HarrisList, HohLockList, MichaelList, NoFlagList};
use lf_core::{ConcurrentMap, FrList};
use lf_workloads::{KeyDist, Mix};

use crate::runner::{lookup, run_mixed, RunConfig, RunResult};
use crate::table::{fmt_f, Table};

fn measure<M>(map: M, threads: usize, ops: u64, mix: Mix) -> RunResult
where
    M: ConcurrentMap<Key = u64, Value = u64>,
{
    let cfg = RunConfig {
        threads,
        ops_per_thread: ops,
        mix,
        dist: KeyDist::Uniform { space: 512 },
        seed: 0xE4,
        prefill: 128,
    };
    run_mixed(&map, &cfg, |h, k| lookup(h, k))
}

/// Print the throughput tables and emit `BENCH_e4.json`.
pub fn run(quick: bool) {
    println!("E4: list throughput (kops/s), key space 512, prefill 128\n");
    let ops: u64 = if quick { 3_000 } else { 20_000 };
    let threads: &[usize] = if quick { &[1, 2, 4] } else { &[1, 2, 4, 8] };

    let mut rows: Vec<String> = Vec::new();
    for mix in [Mix::READ_HEAVY, Mix::UPDATE_HEAVY] {
        let mut table = Table::new([
            "threads",
            "fr-list",
            "harris-list",
            "michael-list",
            "noflag-list",
            "coarse-lock",
            "hoh-lock",
        ]);
        for &t in threads {
            let results = [
                ("fr-list", measure(FrList::new(), t, ops, mix)),
                ("harris-list", measure(HarrisList::new(), t, ops, mix)),
                ("michael-list", measure(MichaelList::new(), t, ops, mix)),
                ("noflag-list", measure(NoFlagList::new(), t, ops, mix)),
                ("coarse-lock", measure(CoarseLockList::new(), t, ops, mix)),
                ("hoh-lock", measure(HohLockList::new(), t, ops, mix)),
            ];
            let mut cells = vec![t.to_string()];
            for (name, res) in &results {
                cells.push(fmt_f(res.throughput() / 1.0e3));
                rows.push(super::artifact_row("e4", name, &mix.label(), t, res));
            }
            table.row(cells);
        }
        println!("mix {}:", mix.label());
        print!("{table}");
        println!();
    }
    super::write_bench_artifact("e4", quick, &rows);
    println!(
        "expected shape: lock-free lists stay competitive as threads grow;\n\
         hand-over-hand locking pays per-node lock cost; the coarse lock\n\
         serializes entirely. (Single-core machines show contention via\n\
         preemption rather than parallelism.)"
    );
}
