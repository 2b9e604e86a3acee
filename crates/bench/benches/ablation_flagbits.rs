//! Criterion: flag-bit ablation as wall clock — FR list vs the
//! backlinks-without-flags variant on a tail-hotspot churn (the E8
//! workload measured in time rather than steps).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use lf_baselines::NoFlagList;
use lf_bench::op_batch;
use lf_core::{ConcurrentMap, FrList};
use lf_workloads::{KeyDist, Mix};

const BATCH: u64 = 1_000;

/// [`op_batch`] of tail-hotspot churn on `map`.
fn batch<M: ConcurrentMap<Key = u64, Value = u64>>(map: M) -> impl FnMut() {
    let dist = KeyDist::Tail {
        space: 512,
        width: 16,
    };
    op_batch(map, Mix::CHURN, dist, 13, BATCH)
}

fn bench_ablation(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_flagbits");
    g.sample_size(10);
    let mut fr = batch(FrList::new());
    g.bench_function(BenchmarkId::new("fr-list", "tail-churn"), |b| {
        b.iter(&mut fr)
    });
    let mut nf = batch(NoFlagList::new());
    g.bench_function(BenchmarkId::new("noflag-list", "tail-churn"), |b| {
        b.iter(&mut nf)
    });
    g.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
