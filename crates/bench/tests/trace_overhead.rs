//! Causal-tracing overhead budget, enabled half (DESIGN.md §12): full
//! event capture into the per-thread rings must cost ≤ 10% against a
//! disabled run on the same machine. The disabled half (≤ 1%) is priced
//! end to end by stackbench's `harness.trace_overhead_share` row.
//!
//! Ignored by default — a timing measurement, meaningful only in
//! release mode on an otherwise quiet machine:
//!
//! ```text
//! cargo test -p lf-bench --release -- --ignored trace_overhead --nocapture
//! ```

use lf_bench::runner::{lookup, run_mixed, RunConfig};
use lf_core::{FrList, SkipList};
use lf_workloads::{KeyDist, Mix};

const THREADS: usize = 4;

/// E4 list configuration (key space 512, prefill 128, update-heavy).
fn list_throughput(trace: bool) -> f64 {
    if trace {
        lf_trace::enable();
    } else {
        lf_trace::disable();
    }
    let cfg = RunConfig {
        threads: THREADS,
        ops_per_thread: 40_000,
        mix: Mix::UPDATE_HEAVY,
        dist: KeyDist::Uniform { space: 512 },
        seed: 0xE4,
        prefill: 128,
    };
    run_mixed(&FrList::new(), &cfg, |h, k| lookup(h, k)).throughput()
}

/// E6 skip-list configuration (key space 8192, prefill 2048, update-heavy).
fn skiplist_throughput(trace: bool) -> f64 {
    if trace {
        lf_trace::enable();
    } else {
        lf_trace::disable();
    }
    let cfg = RunConfig {
        threads: THREADS,
        ops_per_thread: 40_000,
        mix: Mix::UPDATE_HEAVY,
        dist: KeyDist::Uniform { space: 8192 },
        seed: 0xE6,
        prefill: 2048,
    };
    run_mixed(&SkipList::new(), &cfg, |h, k| lookup(h, k)).throughput()
}

/// Best-of-9 with the variants interleaved: external noise only ever
/// subtracts throughput, so each variant's fastest run is its closest
/// look at the intrinsic cost (same estimator as `overhead.rs`).
fn best_of_9(f: fn(bool) -> f64) -> (f64, f64) {
    let _ = f(false);
    let _ = f(true);
    let (mut off, mut on): (f64, f64) = (0.0, 0.0);
    for _ in 0..9 {
        off = off.max(f(false));
        on = on.max(f(true));
    }
    lf_trace::disable();
    (off, on)
}

#[test]
#[ignore = "timing-sensitive: run alone, in release, on a quiet machine"]
fn trace_overhead_enabled_under_ten_percent() {
    // Measure and print both configurations before asserting either, so
    // one configuration's miss never hides the other's share.
    let shares: Vec<(&str, f64, f64, f64)> = [
        ("e4/fr-list", list_throughput as fn(bool) -> f64),
        ("e6/fr-skiplist", skiplist_throughput),
    ]
    .into_iter()
    .map(|(name, f)| {
        let (off, on) = best_of_9(f);
        let overhead = (off - on) / off;
        eprintln!(
            "{name}: tracing off {off:.0} ops/s, on {on:.0} ops/s, overhead {:.2}%",
            overhead * 100.0
        );
        (name, off, on, overhead)
    })
    .collect();
    for (name, off, on, overhead) in shares {
        assert!(
            overhead < 0.10,
            "{name}: enabled tracing overhead {:.2}% exceeds the 10% budget \
             ({off:.0} ops/s -> {on:.0} ops/s)",
            overhead * 100.0
        );
    }
}
