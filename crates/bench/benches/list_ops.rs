//! Criterion: single-threaded operation cost of every list, per size.
//!
//! Regenerates the E4 comparison as wall-clock numbers: batches of a
//! fixed churn+search mix against each list implementation at two
//! steady sizes. Complements the `experiments e4` table (which measures
//! multi-threaded throughput).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use lf_baselines::{CoarseLockList, HarrisList, HohLockList, MichaelList, NoFlagList};
use lf_bench::op_batch;
use lf_core::FrList;
use lf_workloads::{KeyDist, Mix};

const BATCH: u64 = 1_000;

fn bench_lists(c: &mut Criterion) {
    let mut g = c.benchmark_group("list_ops");
    g.sample_size(10);
    for n in [128u64, 512] {
        macro_rules! one {
            ($name:expr, $map:expr) => {{
                let dist = KeyDist::Uniform { space: 2 * n };
                let mut f = op_batch($map, Mix::UPDATE_HEAVY, dist, 7, BATCH);
                g.bench_function(BenchmarkId::new($name, n), |b| b.iter(&mut f));
            }};
        }
        one!("fr-list", FrList::new());
        one!("harris-list", HarrisList::new());
        one!("michael-list", MichaelList::new());
        one!("noflag-list", NoFlagList::new());
        one!("coarse-lock-list", CoarseLockList::new());
        one!("hoh-lock-list", HohLockList::new());
    }
    g.finish();
}

criterion_group!(benches, bench_lists);
criterion_main!(benches);
