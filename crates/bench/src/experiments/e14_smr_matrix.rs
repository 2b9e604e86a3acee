//! E14 — cross-SMR matrix: the same skip list over EBR, hazard eras,
//! and VBR.
//!
//! The structures are generic over [`lf_reclaim::Reclaim`]; this
//! experiment measures what the backend choice actually buys. Two
//! questions:
//!
//! * **Throughput** — read-heavy (s80) and update-heavy mixes across a
//!   thread sweep. VBR's pin-free `try_read` skips the reclamation
//!   handshake entirely on the read path, so the read-heavy column is
//!   where it should pull ahead of EBR as threads (and thus epoch
//!   traffic) grow; eras pay one era announcement per pin, like EBR
//!   but on a different consensus path.
//!
//! * **Peak unreclaimed memory under a stalled reader** — the classic
//!   failure mode of epoch schemes: one reader parked inside a guard
//!   freezes the epoch, and every concurrent removal accumulates
//!   unreclaimed. VBR readers hold *nothing* (reads validate birth
//!   stamps instead of pinning), so a stalled VBR reader leaves
//!   reclamation untouched and peak garbage stays bounded by the
//!   in-flight churn window. The scenario parks one reader
//!   mid-traversal (pinned backends: a live iterator guard; VBR: a
//!   thread stalled between pin-free reads) while two churners
//!   insert/remove, then reports each backend's gauge.
//!
//! Emits `BENCH_e14.json`: throughput rows (with `peak_unreclaimed`
//! per run) plus one `stalled-reader` row per backend.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

use lf_core::SkipList;
use lf_hazard::Hp;
use lf_reclaim::{Ebr, Publish, Reclaim};
use lf_vbr::Vbr;
use lf_workloads::{KeyDist, Mix};

use crate::runner::{run_mixed, RunConfig, RunResult};
use crate::table::{fmt_f, Table};

/// Repetitions per throughput cell; the median-throughput run is
/// reported.
const REPS: usize = 5;

/// One throughput cell: the FR skip list over backend `R`, lookups
/// through the pin-free [`lf_core::SkipListHandle::try_read`] entry
/// point (a pinned `get` on backends without pin-free reads).
fn measure<R>(threads: usize, ops: u64, mix: Mix) -> RunResult
where
    R: Reclaim + Publish<u64> + 'static,
{
    let cfg = RunConfig {
        threads,
        ops_per_thread: ops,
        mix,
        dist: KeyDist::Uniform { space: 8192 },
        seed: 0xE14,
        prefill: 2048,
    };
    super::median_run(REPS, || {
        let map: SkipList<u64, u64, R> = SkipList::with_backend();
        let mut res = run_mixed(&map, &cfg, |h, k| h.try_read(&k).is_some());
        res.peak_unreclaimed = Some(R::gauge(map.domain()).peak_unreclaimed());
        res
    })
}

/// Outcome of one stalled-reader scenario.
struct StalledOutcome {
    /// Gauge high-water mark while the reader was parked.
    peak: u64,
    /// High-water mark of an identical churn with *no* reader at all:
    /// the backend-intrinsic drain lag. `peak - no_reader_peak` is the
    /// garbage attributable to the stalled reader.
    no_reader_peak: u64,
    /// Unreclaimed objects after the reader resumed and the churners
    /// drained reclamation.
    after_drain: u64,
    /// Towers retired by the churn (scenario size sanity check).
    retired: u64,
}

/// Run the churn with an optional parked reader; returns the gauge
/// high-water mark.
///
/// Pinned backends model the stall as a live traversal guard (an
/// iterator held mid-iteration); VBR models it as a thread stalled
/// between pin-free reads — which is the honest analog, because a VBR
/// read holds no domain state at any point.
fn churn<R>(churn_ops: u64, stall_reader: bool) -> (SkipList<u64, u64, R>, u64)
where
    R: Reclaim + Publish<u64> + 'static,
{
    const PREFILL: u64 = 512;
    let map: SkipList<u64, u64, R> = SkipList::with_backend();
    let setup = map.handle();
    for k in 0..PREFILL {
        // Odd keys are churn fodder; even keys give the reader
        // something to be stalled over.
        setup.insert(k, k).ok();
    }
    drop(setup);
    let ready = Barrier::new(if stall_reader { 2 } else { 1 });
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        if stall_reader {
            s.spawn(|| {
                let h = map.handle();
                if R::PIN_FREE_READS {
                    // A pin-free read validates birth stamps and holds
                    // no guard; a reader stalled between reads retains
                    // nothing the collector must wait for.
                    let _ = h.try_read(&0);
                    ready.wait();
                    while !stop.load(Ordering::Relaxed) {
                        std::thread::yield_now();
                    }
                } else {
                    // Stall mid-traversal: the iterator owns a live
                    // guard for as long as it exists.
                    let mut iter = h.iter();
                    let _ = iter.next();
                    ready.wait();
                    while !stop.load(Ordering::Relaxed) {
                        std::thread::yield_now();
                    }
                    drop(iter);
                }
            });
        }
        ready.wait();
        // Two churners remove/re-insert disjoint keys while the reader
        // is parked; every remove retires a tower into the domain.
        std::thread::scope(|cs| {
            for t in 0..2u64 {
                let map = &map;
                cs.spawn(move || {
                    let h = map.handle();
                    let base = 10_000 + t * 1_000_000;
                    for i in 0..churn_ops {
                        let k = base + (i % 997);
                        h.insert(k, k).ok();
                        h.remove(&k);
                        // Churners cooperate with reclamation: the
                        // periodic flush makes the scenario a test of
                        // the *backend's* stalled-reader sensitivity,
                        // not of drain cadence. EBR/eras still cannot
                        // advance past the parked guard; VBR has
                        // nothing to wait for.
                        if i % 64 == 63 {
                            h.flush_reclamation();
                        }
                    }
                });
            }
        });
        stop.store(true, Ordering::Relaxed);
    });
    let peak = R::gauge(map.domain()).peak_unreclaimed();
    (map, peak)
}

/// Park one reader mid-read while two churners insert/remove disjoint
/// keys, then release it and drain; also run the identical churn with
/// no reader as the drain-lag control.
fn stalled_reader<R>(churn_ops: u64) -> StalledOutcome
where
    R: Reclaim + Publish<u64> + 'static,
{
    let (_control, no_reader_peak) = churn::<R>(churn_ops, false);
    let (map, peak) = churn::<R>(churn_ops, true);
    // Reader released: bounded flushing must now drain everything.
    let h = map.handle();
    for _ in 0..64 {
        h.flush_reclamation();
        if R::gauge(map.domain()).unreclaimed() == 0 {
            break;
        }
    }
    let snap = R::gauge(map.domain()).snapshot();
    StalledOutcome {
        peak,
        no_reader_peak,
        after_drain: snap.unreclaimed,
        retired: snap.retired,
    }
}

/// One artifact row for the stalled-reader scenario.
fn stalled_row(name: &str, ops: u64, out: &StalledOutcome) -> String {
    lf_metrics::export::JsonObj::new()
        .field_str("experiment", "e14")
        .field_str("impl", name)
        .field_str("mix", "stalled-reader")
        .field_u64("threads", 2)
        .field_u64("ops", ops)
        .field_u64("retired", out.retired)
        .field_u64("peak_unreclaimed", out.peak)
        .field_u64("no_reader_peak_unreclaimed", out.no_reader_peak)
        .field_u64("after_drain_unreclaimed", out.after_drain)
        .finish()
}

/// Print the cross-SMR matrix and emit `BENCH_e14.json`.
pub fn run(quick: bool) {
    println!(
        "E14: cross-SMR matrix — FR skip list over EBR / hazard eras / VBR\n\
         (kops/s), uniform keys, space 8192, prefill 2048; lookups via\n\
         the pin-free try_read entry point\n"
    );
    let ops: u64 = if quick { 5_000 } else { 60_000 };
    let threads: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4, 8] };

    let mut rows: Vec<String> = Vec::new();
    let mut vbr_vs_ebr: Vec<(usize, f64)> = Vec::new();
    let mut vbr_read_health: Vec<(String, usize, u64, u64)> = Vec::new();
    for mix in [Mix::READ_HEAVY, Mix::UPDATE_HEAVY] {
        let label = mix.label();
        let mut table = Table::new([
            "threads",
            "fr-skiplist-ebr",
            "fr-skiplist-hp",
            "fr-skiplist-vbr",
        ]);
        for &t in threads {
            let results = [
                ("fr-skiplist-ebr", measure::<Ebr>(t, ops, mix)),
                ("fr-skiplist-hp", measure::<Hp>(t, ops, mix)),
                ("fr-skiplist-vbr", measure::<Vbr>(t, ops, mix)),
            ];
            if mix.search == Mix::READ_HEAVY.search {
                vbr_vs_ebr.push((
                    t,
                    results[2].1.throughput() / results[0].1.throughput().max(f64::MIN_POSITIVE),
                ));
            }
            let mut cells = vec![t.to_string()];
            for (name, res) in &results {
                cells.push(fmt_f(res.throughput() / 1.0e3));
                rows.push(super::artifact_row("e14", name, &label, t, res));
            }
            table.row(cells);
            let vbr = &results[2].1.telemetry.counters;
            vbr_read_health.push((
                label.clone(),
                t,
                vbr.try_read_restarts,
                vbr.try_read_fallbacks,
            ));
        }
        println!("mix {label}:");
        print!("{table}");
        println!();
    }

    let churn_ops: u64 = if quick { 4_000 } else { 20_000 };
    println!(
        "stalled reader: one parked reader, two churners x {churn_ops} \n\
         insert+remove pairs; peak-no-reader is the same churn with no\n\
         reader at all (backend-intrinsic drain lag):\n"
    );
    let mut table = Table::new([
        "backend",
        "retired",
        "peak-stalled",
        "peak-no-reader",
        "after-drain",
    ]);
    for (name, out) in [
        ("fr-skiplist-ebr", stalled_reader::<Ebr>(churn_ops)),
        ("fr-skiplist-hp", stalled_reader::<Hp>(churn_ops)),
        ("fr-skiplist-vbr", stalled_reader::<Vbr>(churn_ops)),
    ] {
        table.row(vec![
            name.to_string(),
            out.retired.to_string(),
            out.peak.to_string(),
            out.no_reader_peak.to_string(),
            out.after_drain.to_string(),
        ]);
        rows.push(stalled_row(name, churn_ops, &out));
    }
    print!("{table}");
    println!();

    super::write_bench_artifact("e14", quick, &rows);
    println!("vbr pin-free read health (validation restarts / pinned fallbacks):");
    for (label, t, restarts, fallbacks) in &vbr_read_health {
        println!("  {label} @ {t} threads: restarts={restarts} fallbacks={fallbacks}");
    }
    println!();
    for (t, ratio) in &vbr_vs_ebr {
        println!("vbr/ebr read-heavy throughput at {t} threads: {ratio:.2}x");
    }
    println!(
        "expected shape: vbr >= ebr on s80 at 1 thread and ahead from 4\n\
         threads (reads skip the epoch handshake); under the stalled\n\
         reader, ebr/hp peak-stalled equals everything retired (the\n\
         parked guard freezes the epoch) while vbr's peak matches its\n\
         no-reader control (its readers pin nothing), and everything\n\
         drains once the reader resumes."
    );
}
