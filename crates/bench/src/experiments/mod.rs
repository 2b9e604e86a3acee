//! One module per experiment of `DESIGN.md` §5.
//!
//! Each module exposes `run(quick: bool)` which prints its table(s) to
//! stdout. `quick` shrinks problem sizes so `experiments all` finishes
//! in minutes; the full sizes are what `EXPERIMENTS.md` records.

use std::path::PathBuf;
use std::sync::Arc;

use lf_core::{ConcurrentMap, MapHandle};
use lf_sched::{OpHandle, Scheduler};

use crate::runner::RunResult;

pub mod e10_additivity;
pub mod e11_lock_freedom;
pub mod e12_tower_census;
pub mod e13_shard_scaling;
pub mod e14_smr_matrix;
pub mod e15_map_vs_shard;
pub mod e16_server_loopback;
pub mod e1_deletion_trace;
pub mod e2_adversarial;
pub mod e3_amortized;
pub mod e4_list_throughput;
pub mod e5_search_cost;
pub mod e6_skiplist_throughput;
pub mod e7_async_service;
pub mod e8_flag_ablation;
pub mod e9_cas_breakdown;

/// Run one experiment by id (`"e1"` … `"e16"` or `"all"`).
///
/// Returns `false` if the id is unknown.
pub fn dispatch(id: &str, quick: bool) -> bool {
    match id {
        "e1" => e1_deletion_trace::run(quick),
        "e2" => e2_adversarial::run(quick),
        "e3" => e3_amortized::run(quick),
        "e4" => e4_list_throughput::run(quick),
        "e5" => e5_search_cost::run(quick),
        "e6" => e6_skiplist_throughput::run(quick),
        "e7" => e7_async_service::run(quick),
        "e8" => e8_flag_ablation::run(quick),
        "e9" => e9_cas_breakdown::run(quick),
        "e10" => e10_additivity::run(quick),
        "e11" => e11_lock_freedom::run(quick),
        "e12" => e12_tower_census::run(quick),
        "e13" => e13_shard_scaling::run(quick),
        "e14" => e14_smr_matrix::run(quick),
        "e15" => e15_map_vs_shard::run(quick),
        "e16" => e16_server_loopback::run(quick),
        "all" => {
            for id in [
                "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13",
                "e14", "e15", "e16",
            ] {
                assert!(dispatch(id, quick));
                println!();
            }
        }
        _ => return false,
    }
    true
}

/// Spawn `f` as a scheduler process running on its own fresh handle of
/// `map` — how the deterministic experiments (E1/E2/E8/E9/E11) drive
/// the shipped structures.
pub(crate) fn spawn_op<M: ConcurrentMap + 'static, R: Send + 'static>(
    sched: &Scheduler,
    map: &Arc<M>,
    f: impl FnOnce(&M::Handle<'_>) -> R + Send + 'static,
) -> OpHandle<R> {
    let map = Arc::clone(map);
    sched.spawn(move |_| f(&map.handle()))
}

/// [`spawn_op`], run to completion.
pub(crate) fn run_op<M: ConcurrentMap + 'static, R: Send + 'static>(
    sched: &Scheduler,
    map: &Arc<M>,
    f: impl FnOnce(&M::Handle<'_>) -> R + Send + 'static,
) -> R {
    let op = spawn_op(sched, map, f);
    sched.run_to_completion(op.pid());
    op.join()
}

/// `map` (fresh) holding `keys`, each inserted by its own process.
pub(crate) fn prefilled<M: ConcurrentMap<Key = u64, Value = u64> + 'static>(
    sched: &Scheduler,
    map: M,
    keys: impl IntoIterator<Item = u64>,
) -> Arc<M> {
    let map = Arc::new(map);
    for k in keys {
        assert!(
            run_op(sched, &map, move |h| h.insert(k, k).is_ok()),
            "prefill {k}"
        );
    }
    map
}

/// The median-throughput run of `reps` runs of `run`: cross-structure
/// ratios on an oversubscribed box are otherwise dominated by
/// scheduler noise.
pub(crate) fn median_run(reps: usize, run: impl FnMut() -> RunResult) -> RunResult {
    let mut runs: Vec<RunResult> = std::iter::repeat_with(run).take(reps).collect();
    runs.sort_by(|a, b| a.throughput().total_cmp(&b.throughput()));
    runs.swap_remove(reps / 2)
}

/// Serialize one measured run as a benchmark-artifact row: identity
/// fields, throughput, and the telemetry distributions (latency
/// p50/p99 surfaced at top level; full histograms nested).
pub(crate) fn artifact_row(
    experiment: &str,
    structure: &str,
    mix: &str,
    threads: usize,
    res: &RunResult,
) -> String {
    use lf_metrics::export::{histogram_json, JsonObj};
    let lat = res.telemetry.op_latency_ns();
    let mut obj = JsonObj::new()
        .field_str("experiment", experiment)
        .field_str("impl", structure)
        .field_str("mix", mix)
        .field_u64("threads", threads as u64)
        .field_u64("ops", res.ops)
        .field_f64("throughput_ops_per_s", res.throughput())
        .field_f64("steps_per_op", res.steps_per_op());
    if let Some(peak) = res.peak_unreclaimed {
        obj = obj.field_u64("peak_unreclaimed", peak);
    }
    // Pin-free read health: zero on backends without pin-free reads.
    let c = &res.telemetry.counters;
    if c.try_read_restarts > 0 || c.try_read_fallbacks > 0 {
        obj = obj
            .field_u64("try_read_restarts", c.try_read_restarts)
            .field_u64("try_read_fallbacks", c.try_read_fallbacks);
    }
    obj.field_u64("latency_p50_ns", lat.p50())
        .field_u64("latency_p99_ns", lat.p99())
        .field_raw("latency_ns", &histogram_json(lat))
        .field_raw("cas_retries", &histogram_json(res.telemetry.cas_retries()))
        .field_raw(
            "backlink_chain",
            &histogram_json(res.telemetry.backlink_chain()),
        )
        .field_raw("search_hops", &histogram_json(res.telemetry.search_hops()))
        .finish()
}

/// Write collected rows as `BENCH_<id>.json` in the working directory
/// (one JSON object: run metadata plus a `rows` array). Failure to
/// write is reported but never fails the experiment.
pub(crate) fn write_bench_artifact(id: &str, quick: bool, rows: &[String]) {
    let path = PathBuf::from(format!("BENCH_{id}.json"));
    let body = format!(
        "{{\"experiment\":\"{id}\",\"sizes\":\"{}\",\"rows\":[{}]}}",
        if quick { "quick" } else { "full" },
        rows.join(",")
    );
    match lf_metrics::export::write_artifact(&path, &body) {
        Ok(()) => println!("wrote {} ({} rows)", path.display(), rows.len()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}
