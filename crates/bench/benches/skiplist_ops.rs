//! Criterion: skip list operation cost — FR vs restart vs lock-based —
//! plus the E5 search-scaling series as wall-clock measurements.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use lf_baselines::{LockSkipList, RestartSkipList};
use lf_bench::op_batch;
use lf_core::{ConcurrentMap, SkipList};
use lf_workloads::{KeyDist, Mix, WorkloadIter};

const BATCH: u64 = 1_000;

/// [`op_batch`] over uniform keys in `0..2n`, half of them present.
fn batch<M: ConcurrentMap<Key = u64, Value = u64>>(map: M, n: u64, mix: Mix) -> impl FnMut() {
    op_batch(map, mix, KeyDist::Uniform { space: 2 * n }, 11, BATCH)
}

fn bench_skiplists(c: &mut Criterion) {
    let mut g = c.benchmark_group("skiplist_ops");
    g.sample_size(10);
    for n in [1_024u64, 8_192] {
        macro_rules! one {
            ($name:expr, $map:expr) => {{
                let mut f = batch($map, n, Mix::UPDATE_HEAVY);
                g.bench_function(BenchmarkId::new($name, n), |b| b.iter(&mut f));
            }};
        }
        one!("fr-skiplist", SkipList::new());
        one!("restart-skiplist", RestartSkipList::new());
        one!("lock-skiplist", LockSkipList::new());
    }
    g.finish();

    // E5 as wall clock: searches only, growing n (log-shaped).
    let mut g = c.benchmark_group("skiplist_search_scaling");
    g.sample_size(10);
    for n in [1_024u64, 4_096, 16_384, 65_536] {
        let mut f = batch(SkipList::new(), n, Mix::new(0, 0, 100));
        g.bench_function(BenchmarkId::new("fr-skiplist-search", n), |b| {
            b.iter(&mut f)
        });
    }
    g.finish();

    // Design ablation: the configured level cap. Too few levels
    // degenerate towards the flat list; beyond ~log2(n) extra levels
    // cost (almost) nothing.
    let mut g = c.benchmark_group("skiplist_max_level_ablation");
    g.sample_size(10);
    const N: u64 = 16_384;
    for max_level in [4usize, 8, 16, 32] {
        let sl = SkipList::<u64, u64>::with_max_level(max_level);
        {
            let h = sl.handle();
            for k in (0..2 * N).step_by(2) {
                let _ = h.insert(k, k);
            }
        }
        let mut w = WorkloadIter::new(Mix::new(0, 0, 100), KeyDist::Uniform { space: 2 * N }, 17);
        g.bench_function(BenchmarkId::new("search-16k", max_level), |b| {
            b.iter(|| {
                let h = sl.handle();
                for _ in 0..BATCH {
                    let op = w.next_op();
                    black_box(h.contains(&op.key));
                }
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_skiplists);
criterion_main!(benches);
