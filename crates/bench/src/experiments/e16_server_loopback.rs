//! E16 — loopback TCP serving under overload: Shed vs Reject, with
//! exact wire-level accounting.
//!
//! E7 established the open-loop story *in process*: past saturation,
//! `Reject` fails fast and `Shed` evicts, and the admitted tail stays
//! bounded. This experiment pushes the same methodology through a real
//! socket: the [`resp_client`](crate::resp_client) generator offers
//! RESP commands over loopback TCP at a fixed ratio of the *probed*
//! capacity, and the server surfaces every refusal as `-BUSY
//! shed`/`-BUSY rejected` — so the client's reply tallies must equal
//! the server's counters exactly, command for command. That equality is
//! asserted for every trial of every cell (EXPERIMENTS.md §E16):
//! overload here is accounted, never inferred. Each cell warms up at
//! its offered rate first and every metric is windowed against a
//! post-warmup baseline.
//!
//! Also performs the exporter overhead spot-check for the server-label
//! metrics: a `ServerSnapshot` render (JSON + Prometheus) is timed and
//! reported per-call, bounding what a scraper costs the serving path.
//!
//! Emits `BENCH_e16.json`: one row per (policy, offered-ratio) with
//! shed-rate, admitted e2c p50/p99 (service histograms) and
//! socket-to-socket p50/p99 (client-measured).

use std::sync::Arc;
use std::time::Instant;

use lf_async::{AsyncSkipList, BackpressurePolicy, ServiceBuilder};
use lf_core::SkipList;
use lf_metrics::export::{histogram_json, JsonObj};
use lf_metrics::Histogram;
use lf_server::{Bytes, Server, ServerBuilder};
use lf_workloads::{KeyDist, Mix, OpKind, WorkloadIter};

use crate::resp_client::{run_open_loop, OpenLoopConfig, RunTally};
use crate::table::{fmt_f, Table};

use super::write_bench_artifact;

type WireService = AsyncSkipList<Bytes, Bytes>;

const WORKERS: usize = 2;
// Deliberately shallow rings: one 16 KiB socket read parses into a few
// hundred pipelined commands, so overload actually reaches the
// admission point instead of hiding in ring slack.
const QUEUE: usize = 64;
const BATCH: usize = 64;
const SPACE: u64 = 4_096;
const BURST: usize = 16;

/// Decimal-padded wire form of a workload key (preserves u64 order, so
/// the ordered tier's SCAN order is the numeric order).
fn wire_key(k: u64) -> Vec<u8> {
    format!("{k:012}").into_bytes()
}

/// Start a wire server over a prefilled skip-list service (half the
/// keyspace present, as in E7, so GETs hit ~50%).
fn start_server(policy: BackpressurePolicy) -> (Server<SkipList<Bytes, Bytes>>, Arc<WireService>) {
    let sl: SkipList<Bytes, Bytes> = SkipList::new();
    {
        let h = sl.handle();
        for k in (0..SPACE).step_by(2) {
            let _ = h.insert(wire_key(k), b"v".to_vec());
        }
    }
    let service = Arc::new(
        ServiceBuilder::new()
            .workers(WORKERS)
            .queue_capacity(QUEUE)
            .batch_max(BATCH)
            .policy(policy)
            .build(sl),
    );
    let server = ServerBuilder::new()
        .serve(Arc::clone(&service))
        .expect("bind loopback");
    (server, service)
}

/// Probe socket-path capacity: unpaced pipelined GETs through a `Shed`
/// server (submission never errors), admitted ops per submit second.
fn probe_capacity(ops: u64) -> f64 {
    let (server, service) = start_server(BackpressurePolicy::Shed);
    let mut w = WorkloadIter::new(Mix::READ_HEAVY, KeyDist::Uniform { space: SPACE }, 0xE160A);
    let tally = run_open_loop(
        &OpenLoopConfig {
            addr: server.local_addr(),
            ops,
            rate: None,
            burst: 256,
        },
        |_, buf| {
            let op = w.next_op();
            lf_server::resp::write_command(buf, &[b"GET", &wire_key(op.key)]);
        },
    )
    .expect("capacity probe");
    server.stop();
    service.shutdown();
    // End-to-end wall clock: submit time alone only measures how fast
    // loopback socket buffers absorb writes.
    (tally.ok as f64 / tally.wall.as_secs_f64().max(1e-9)).max(1.0)
}

/// One measured run: paced open loop at `rate`, read-heavy mix with
/// collision-free SET keys (an in-flight duplicate SET would burn its
/// retry budget and break the ok/shed/rejected accounting this
/// experiment asserts).
fn measured_run(addr: std::net::SocketAddr, run_id: u64, ops: u64, rate: f64) -> RunTally {
    let mut w = WorkloadIter::new(
        Mix::READ_HEAVY,
        KeyDist::Uniform { space: SPACE },
        0xE160B ^ run_id,
    );
    run_open_loop(
        &OpenLoopConfig {
            addr,
            ops,
            rate: Some(rate),
            burst: BURST,
        },
        |i, buf| {
            let op = w.next_op();
            match op.kind {
                OpKind::Search => {
                    lf_server::resp::write_command(buf, &[b"GET", &wire_key(op.key)]);
                }
                OpKind::Insert => {
                    // Unique per command: never races another in-flight
                    // SET of the same key.
                    let key = format!("w{run_id:02}-{i:012}").into_bytes();
                    lf_server::resp::write_command(buf, &[b"SET", &key, b"v"]);
                }
                OpKind::Remove => {
                    lf_server::resp::write_command(buf, &[b"DEL", &wire_key(op.key)]);
                }
            }
        },
    )
    .expect("measured run")
}

/// One full trial of a grid cell: fresh server, warmup at the offered
/// rate, measured run windowed against a post-warmup baseline, exact
/// accounting asserted wire-to-ring. Returns the client tally and the
/// windowed admitted enqueue-to-complete histogram.
fn run_cell(policy: BackpressurePolicy, run_id: u64, ops: u64, rate: f64) -> (RunTally, Histogram) {
    let (server, service) = start_server(policy);

    // Warmup at the offered rate, then window every metric against a
    // post-warmup baseline, so connection set-up and cold caches stay
    // out of the measured tail.
    let warmup_ops = ((rate * 0.35) as u64).max(1_000);
    let _ = measured_run(server.local_addr(), run_id + 1000, warmup_ops, rate);
    let server_base = server.metrics().snapshot();
    let svc_base = service.metrics();

    let tally = measured_run(server.local_addr(), run_id, ops, rate);

    // Exact accounting, wire to ring: the client's reply tallies and
    // the server's counters must agree on every command — a `-BUSY` is
    // a *reply*, not a guess.
    assert_eq!(
        tally.sent,
        tally.ok + tally.shed + tally.rejected + tally.errors,
        "client tally lost a reply"
    );
    assert_eq!(tally.errors, 0, "unexpected protocol/command errors");
    let snap = server.metrics().snapshot();
    assert_eq!(
        snap.commands - server_base.commands,
        tally.sent,
        "server parsed a different count"
    );
    assert_eq!(
        (
            snap.ok - server_base.ok,
            snap.shed - server_base.shed,
            snap.rejected - server_base.rejected,
        ),
        (tally.ok, tally.shed, tally.rejected),
        "server counters disagree with client tallies"
    );

    let e2c = service.metrics().enqueue_to_complete_ns - svc_base.enqueue_to_complete_ns;
    server.stop();
    service.shutdown();
    (tally, e2c)
}

/// Time one JSON + Prometheus render of the server snapshot (the
/// exporter overhead spot-check).
fn export_overhead_ns(server: &Server<SkipList<Bytes, Bytes>>) -> u64 {
    const ROUNDS: u32 = 200;
    let started = Instant::now();
    for _ in 0..ROUNDS {
        let snap = server.metrics().snapshot();
        std::hint::black_box(snap.to_json());
        std::hint::black_box(snap.to_prometheus());
    }
    (started.elapsed().as_nanos() / u128::from(ROUNDS)) as u64
}

/// Print the overload grid and write `BENCH_e16.json`.
pub fn run(quick: bool) {
    println!("E16: loopback TCP serving — Shed vs Reject, exact wire accounting\n");
    let probe_ops: u64 = if quick { 20_000 } else { 60_000 };
    let capacity = probe_capacity(probe_ops);
    println!(
        "probed socket capacity (fr-skiplist, {WORKERS} workers, queue {QUEUE}, \
         batch {BATCH}, GET-only): {} kops/s",
        fmt_f(capacity / 1e3)
    );

    // Exporter overhead spot-check against a throwaway live server.
    {
        let (server, service) = start_server(BackpressurePolicy::Shed);
        println!(
            "exporter spot-check: ServerSnapshot JSON+Prometheus render = {} ns/call\n",
            export_overhead_ns(&server)
        );
        server.stop();
        service.shutdown();
    }

    let duration_s = if quick { 0.25 } else { 0.6 };
    // Loopback on a small shared box is noisy (kernel socket-buffer
    // autotuning alone can swing a tail by 100×): report the median
    // trial per cell, selected by windowed e2c p99.
    let trials: usize = if quick { 1 } else { 3 };
    let mut table = Table::new([
        "policy",
        "offered",
        "shed %",
        "e2c p99 µs",
        "sock p50 µs",
        "sock p99 µs",
    ]);
    let mut rows = Vec::new();
    let mut run_id = 0u64;

    for policy in [BackpressurePolicy::Shed, BackpressurePolicy::Reject] {
        let policy_name = match policy {
            BackpressurePolicy::Shed => "shed",
            BackpressurePolicy::Reject => "reject",
            BackpressurePolicy::Block => "block",
        };
        for (tag, ratio) in [("x05", 0.5), ("x10", 1.0), ("x20", 2.0)] {
            let rate = capacity * ratio;
            let ops = ((rate * duration_s) as u64).max(2_000);
            let mut outcomes = Vec::with_capacity(trials);
            for _ in 0..trials {
                run_id += 1;
                outcomes.push(run_cell(policy, run_id, ops, rate));
            }
            outcomes.sort_by_key(|(_, e2c)| e2c.p99());
            let (tally, e2c) = outcomes.swap_remove(trials / 2);

            table.row([
                policy_name.to_string(),
                format!("{ratio:.1}x"),
                fmt_f(tally.shed_rate() * 100.0),
                fmt_f(e2c.p99() as f64 / 1e3),
                fmt_f(tally.socket_ns.p50() as f64 / 1e3),
                fmt_f(tally.socket_ns.p99() as f64 / 1e3),
            ]);
            rows.push(
                JsonObj::new()
                    .field_str("experiment", "e16")
                    .field_str("impl", "lf-server-skiplist")
                    .field_str("mix", &format!("tcp_{policy_name}_{tag}"))
                    .field_str("policy", policy_name)
                    .field_u64("workers", WORKERS as u64)
                    .field_u64("batch_max", BATCH as u64)
                    .field_u64("ops", tally.sent)
                    .field_u64("trials", trials as u64)
                    .field_f64("offered_ratio", ratio)
                    .field_f64("offered_rate_ops_per_s", rate)
                    .field_f64("capacity_ops_per_s", capacity)
                    .field_u64("ok", tally.ok)
                    .field_u64("shed", tally.shed)
                    .field_u64("rejected", tally.rejected)
                    .field_f64("shed_rate", tally.shed_rate())
                    .field_f64(
                        "offered_achieved_ops_per_s",
                        tally.sent as f64 / tally.elapsed.as_secs_f64().max(1e-9),
                    )
                    .field_f64(
                        "throughput_ops_per_s",
                        tally.ok as f64 / tally.wall.as_secs_f64().max(1e-9),
                    )
                    .field_u64("e2c_p50_ns", e2c.p50())
                    .field_u64("e2c_p99_ns", e2c.p99())
                    .field_u64("socket_p50_ns", tally.socket_ns.p50())
                    .field_u64("socket_p99_ns", tally.socket_ns.p99())
                    .field_raw("enqueue_to_complete_ns", &histogram_json(&e2c))
                    .field_raw("socket_ns", &histogram_json(&tally.socket_ns))
                    .finish(),
            );
        }
    }
    print!("{table}");
    println!(
        "\nshed %: commands answered `-BUSY` (shed+rejected) / sent — client tallies\n\
         equal server counters by assertion. e2c: the service's admitted\n\
         enqueue-to-complete tail. sock: client-measured socket-to-socket latency\n\
         of admitted commands. each cell reports its median-by-e2c-p99\n\
         trial of {trials}."
    );
    write_bench_artifact("e16", quick, &rows);
}
