//! E3 — the amortized bound `t̂(S) ∈ O(n(S) + c(S))` on real threads.
//!
//! Two metered series on the Fomitchev–Ruppert list:
//!
//! * **steps/op versus n** at fixed thread count — should grow
//!   linearly in the list size (the `O(n)` necessary cost of
//!   traversal), so the `steps/op ÷ n` column should be roughly flat;
//! * **steps/op versus threads** at fixed n — the concurrency overhead
//!   is an *additive* `O(c)` term, so steps/op should grow by a small
//!   additive amount per extra thread, not multiply.

use lf_core::FrList;
use lf_workloads::{KeyDist, Mix};

use crate::runner::{lookup, run_mixed, RunConfig};
use crate::table::{fmt_f, Table};

/// Print both series.
pub fn run(quick: bool) {
    println!("E3: amortized cost O(n + c) on the FR list (real threads, metered)\n");

    let ops: u64 = if quick { 2_000 } else { 10_000 };

    // Series A: fixed contention, growing n.
    let sizes: &[u64] = if quick {
        &[64, 128, 256, 512]
    } else {
        &[64, 128, 256, 512, 1024, 2048]
    };
    let mut a = Table::new(["n (steady size)", "threads", "steps/op", "steps/op / n"]);
    for &n in sizes {
        let cfg = RunConfig {
            threads: 4,
            ops_per_thread: ops,
            mix: Mix::UPDATE_HEAVY,
            dist: KeyDist::Uniform { space: 2 * n },
            seed: 0xE3,
            prefill: n,
        };
        let res = run_mixed(&FrList::new(), &cfg, |h, k| lookup(h, k));
        a.row([
            n.to_string(),
            "4".to_string(),
            fmt_f(res.steps_per_op()),
            fmt_f(res.steps_per_op() / n as f64),
        ]);
    }
    println!("Series A: steps/op vs list size (expect linear; last column flat)");
    print!("{a}");

    // Series B: fixed n, growing contention.
    let threads: &[usize] = if quick { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    let mut b = Table::new(["n", "threads", "steps/op", "cas fails/op"]);
    for &t in threads {
        let cfg = RunConfig {
            threads: t,
            ops_per_thread: ops,
            mix: Mix::UPDATE_HEAVY,
            dist: KeyDist::Uniform { space: 256 },
            seed: 0xE3B,
            prefill: 128,
        };
        let res = run_mixed(&FrList::new(), &cfg, |h, k| lookup(h, k));
        b.row([
            "128".to_string(),
            t.to_string(),
            fmt_f(res.steps_per_op()),
            fmt_f(res.metrics.cas_failures() as f64 / res.ops as f64),
        ]);
    }
    println!("\nSeries B: steps/op vs threads at n = 128 (expect small additive growth)");
    print!("{b}");
    println!(
        "\npaper claim: necessary cost O(n(S)) + concurrency overhead O(c(S));\n\
         Series A linear in n, Series B bounded additive in c."
    );
}
