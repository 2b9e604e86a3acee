//! The ledger pass: one generator's first operations replayed on one
//! thread through every boundary of the stack, outside in, with a span
//! recorded around each call into a crate's public functions.
//!
//! Every stage starts from a freshly prefilled structure and a fresh
//! model, so each sees the same commands do the same things, and with
//! one thread and a fixed seed every count repeats exactly. Spans stay
//! in memory until the pass ends.

use std::hint::black_box;
use std::io::{self, Write};
use std::path::Path;
use std::time::{Duration, Instant};

use lf_async::{LaneFuture, OpFuture, ScanFuture, Service};
use lf_map::BucketMap;
use lf_metrics::Registry;
use lf_reclaim::Collector;
use lf_sched::rt;
use lf_server::resp::{self, Command};

use crate::front::{outcome_of_page, outcome_of_response, AsyncPort, Port, WirePort};
use crate::gen::{
    value, Bytes, Cmd, Expect, KeyTable, Kind, Model, OpGen, Outcome, SetRule, Stripe, Tally,
};
use crate::report::{Metric, Pass};
use crate::run::{build_tier, cross_check, start_service, Stack};
use crate::spec::{Front, Sizes, Workload, BUCKETS_PER_SHARD, SCAN_COUNT};
use crate::stats::{self, median};
use crate::tier::{apply, prefill, Direct, Tier};

/// Calls per span where one call is too short to time alone (a clock
/// read costs about 30 ns).
const CHUNK: usize = 64;
/// Scan calls timed on workloads whose mix has none.
const SCAN_PROBES: usize = 2_000;
/// Runs per side of the histogram on/off comparison.
const OVERHEAD_REPS: usize = 3;
/// The trace file holds every stage span and the call spans of this
/// many leading operations; the metrics use all spans.
const TRACE_FILE_OPS: u32 = 20_000;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the span this one ran inside.
    pub parent: Option<u32>,
    /// Index in the command stream of the (first) command served.
    pub op: u32,
    /// Calls the span covers.
    pub calls: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 20),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span that other spans will name as parent.
    fn begin(&mut self, name: &'static str, calls: usize) -> u32 {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            parent: None,
            op: 0,
            calls: calls as u32,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() as u32 - 1
    }

    fn end(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now();
    }

    /// Time `f` as a child of `parent`.
    fn record<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        op: usize,
        calls: usize,
        f: impl FnOnce() -> R,
    ) -> R {
        let start_ns = self.now();
        let result = f();
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            parent: Some(parent),
            op: op as u32,
            calls: calls as u32,
            start_ns,
            end_ns,
        });
        result
    }

    /// Nanoseconds per call of every child span called `name` (a
    /// stage's own span shares its children's name).
    fn per_call(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.parent.is_some() && s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / s.calls.max(1) as f64)
            .collect()
    }

    fn median_ns(&self, name: &str) -> f64 {
        median(&self.per_call(name))
    }

    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            if s.parent.is_some() && s.op >= TRACE_FILE_OPS {
                continue;
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"parent\": {parent}, \"op_id\": {}, \"calls\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.op, s.calls, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// A span's own time: its duration less what its child spans cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

type Plan = Vec<(Cmd, Expect)>;

fn plan(ops: &[(Kind, u32)], rule: SetRule) -> Plan {
    let mut model = Model::new(Stripe::ALL, rule);
    ops.iter().map(|&op| model.plan(op)).collect()
}

fn core_span(kind: Kind) -> &'static str {
    match kind {
        Kind::Get => "core.get",
        Kind::Set => "core.insert",
        Kind::Del => "core.remove",
        Kind::Scan => "core.scan",
    }
}

/// What the stages share: the spans and the key table. Every replay
/// checks each answer against the plan and returns its tally.
struct Replay<'k> {
    tr: Tracer,
    keys: &'k KeyTable,
}

impl Replay<'_> {
    /// Replay `plan` on a direct handle; `spanned` records each call
    /// under a `core` stage. Returns the time the replay took.
    fn direct(
        &mut self,
        h: &(impl Direct + ?Sized),
        plan: &[(Cmd, Expect)],
        spanned: bool,
    ) -> (Tally, Duration) {
        let mut tally = Tally::default();
        let root = spanned.then(|| self.tr.begin("core", plan.len()));
        let start = Instant::now();
        for (i, (cmd, expect)) in plan.iter().enumerate() {
            let got = match root {
                Some(root) => self.tr.record(core_span(cmd.kind), root, i, 1, || {
                    apply(h, *cmd, self.keys)
                }),
                None => apply(h, *cmd, self.keys),
            };
            tally.check(expect, &got, self.keys);
        }
        let took = start.elapsed();
        if let Some(root) = root {
            self.tr.end(root);
        }
        (tally, took)
    }

    /// Replay `plan` through a port in rounds of `depth`, one span per
    /// round. Returns the outcomes too.
    fn port(
        &mut self,
        port: &mut impl Port,
        plan: &[(Cmd, Expect)],
        depth: usize,
        name: &'static str,
    ) -> io::Result<(Tally, Vec<Outcome>)> {
        let mut tally = Tally::default();
        let mut outcomes = Vec::with_capacity(plan.len());
        let mut lat = Vec::with_capacity(depth);
        let root = self.tr.begin(name, plan.len());
        for (round, chunk) in plan.chunks(depth).enumerate() {
            let cmds: Vec<Cmd> = chunk.iter().map(|(c, _)| *c).collect();
            let answered = outcomes.len();
            lat.clear();
            self.tr.record(name, root, round * depth, chunk.len(), || {
                port.round(&cmds, &mut outcomes, &mut lat)
            })?;
            for ((_, expect), got) in chunk.iter().zip(&outcomes[answered..]) {
                tally.check(expect, got, self.keys);
            }
        }
        self.tr.end(root);
        Ok((tally, outcomes))
    }

    /// `async.submit`: make the future and drive it until its request
    /// is in the ring, as the server does per pipelined command; then
    /// await the window.
    fn submit<T: Tier>(
        &mut self,
        service: &Service<T>,
        plan: &[(Cmd, Expect)],
        depth: usize,
    ) -> Tally {
        let mut tally = Tally::default();
        let root = self.tr.begin("async.submit", plan.len());
        for (round, chunk) in plan.chunks(depth).enumerate() {
            let mut window = Vec::with_capacity(depth);
            for (i, (cmd, _)) in chunk.iter().enumerate() {
                let key = self.keys.get(cmd.key).clone();
                let val = (cmd.kind == Kind::Set).then(|| value(cmd.key, cmd.ver));
                window.push(
                    self.tr
                        .record("async.submit", root, round * depth + i, 1, || {
                            match cmd.kind {
                                Kind::Scan => {
                                    let mut f = service.scan(Some(key), SCAN_COUNT);
                                    let early = rt::block_on_until(&mut f, LaneFuture::is_enqueued);
                                    (early.map(outcome_of_page), InFlight::Scan(f))
                                }
                                kind => {
                                    let mut f = match (kind, val) {
                                        (Kind::Set, Some(v)) => service.upsert(key, v),
                                        (Kind::Del, _) => service.remove(key),
                                        _ => service.get(key),
                                    };
                                    let early = rt::block_on_until(&mut f, LaneFuture::is_enqueued);
                                    (
                                        early.map(|r| outcome_of_response(kind, r)),
                                        InFlight::Op(kind, f),
                                    )
                                }
                            }
                        }),
                );
            }
            for ((_, expect), (early, fut)) in chunk.iter().zip(window) {
                let got = early.unwrap_or_else(|| match fut {
                    InFlight::Op(kind, f) => outcome_of_response(kind, rt::block_on(f)),
                    InFlight::Scan(f) => outcome_of_page(rt::block_on(f)),
                });
                tally.check(expect, &got, self.keys);
            }
        }
        self.tr.end(root);
        tally
    }

    /// Time `f` over each command of the plan, `CHUNK` calls per span.
    fn chunked(&mut self, name: &'static str, plan: &[(Cmd, Expect)], mut f: impl FnMut(&Cmd)) {
        let root = self.tr.begin(name, plan.len());
        for (i, chunk) in plan.chunks(CHUNK).enumerate() {
            self.tr.record(name, root, i * CHUNK, chunk.len(), || {
                chunk.iter().for_each(|(c, _)| f(c))
            });
        }
        self.tr.end(root);
    }
}

/// A submitted request, as `lf-server`'s connection loop holds it.
enum InFlight<T: Tier> {
    Op(Kind, OpFuture<T>),
    Scan(ScanFuture<T>),
}

/// Serialise an outcome as `lf-server` renders that reply.
fn render(out: &mut Vec<u8>, outcome: &Outcome) {
    match outcome {
        Outcome::Value(Some(v)) => resp::write_bulk(out, v),
        Outcome::Value(None) => resp::write_null(out),
        Outcome::Stored(_) => resp::write_simple(out, "OK"),
        Outcome::Removed { hit, .. } => resp::write_int(out, *hit as i64),
        Outcome::Page { keys, cursor } => {
            let cursor = match cursor {
                Some(Some(last)) => resp::hex_encode(last),
                _ => "0".to_string(),
            };
            resp::write_array_header(out, 2);
            resp::write_bulk(out, cursor.as_bytes());
            resp::write_array_header(out, keys.len());
            for k in keys {
                resp::write_bulk(out, k);
            }
        }
        Outcome::Failed(_) => resp::write_error(out, "ERR"),
    }
}

/// Run the workload's ledger pass and write its spans to
/// `<out>/trace-<workload>.jsonl`.
pub fn ledger<T: Tier>(w: &Workload, seed: u64, sizes: Sizes, out: &Path) -> io::Result<Pass> {
    let keys = KeyTable::new();
    let n = sizes.ledger_ops();
    let rtt1 = sizes.rtt1_ops();
    // Workloads that never batch still get their serving rows at the
    // wire workloads' depth.
    let depth = if w.front == Front::Direct {
        32
    } else {
        w.depth
    };
    let mut rp = Replay {
        tr: Tracer::new(),
        keys: &keys,
    };
    let mut tally = Tally::default();
    let mut disagreements = 0;

    // lf-workloads: generate, with the encoding every front does.
    let mut gen = OpGen::new(w, seed, Stripe::ALL);
    let mut ops = Vec::with_capacity(n);
    let root = rp.tr.begin("workloads.gen", n);
    for i in (0..n).step_by(CHUNK) {
        let calls = CHUNK.min(n - i);
        rp.tr.record("workloads.gen", root, i, calls, || {
            for _ in 0..calls {
                let (kind, key) = gen.next_op();
                black_box(keys.get(key).clone());
                if kind == Kind::Set {
                    black_box(value(key, 1));
                }
                ops.push((kind, key));
            }
        });
    }
    rp.tr.end(root);
    let served = plan(&ops, SetRule::Upsert);
    let direct = plan(&ops, SetRule::Insert);

    // lf-server, parsing: the command stream as the socket delivers it.
    let mut stream = Vec::new();
    let cmds: Vec<Cmd> = served.iter().map(|(c, _)| *c).collect();
    WirePort::encode(&cmds, &keys, &mut stream);
    let mut at = 0;
    let mut unparsed = 0u64;
    rp.chunked("server.parse", &served, |_| {
        let parsed = resp::parse_command(&stream[at..])
            .ok()
            .flatten()
            .and_then(|(args, used)| {
                at += used;
                Command::parse(args).ok()
            });
        unparsed += black_box(parsed).is_none() as u64;
    });
    disagreements += unparsed + (at != stream.len()) as u64;
    drop((stream, cmds));

    // lf-core under lf-shard / lf-map: every call, with the paper's
    // step counts around the whole replay.
    let tier: T = build_tier(&keys);
    let ((stage, traced_time), telemetry) =
        Registry::join_and_snapshot(|| rp.direct(&tier.direct(), &direct, true));
    tally.add(&stage);
    let max_ops_share = tier.max_ops_share();
    if w.mix.scan == 0 {
        let h = tier.direct();
        let root = rp.tr.begin("core.scan.probe", SCAN_PROBES);
        for (i, (cmd, _)) in direct.iter().take(SCAN_PROBES).enumerate() {
            rp.tr.record("core.scan", root, i, 1, || {
                black_box(h.scan(keys.get(cmd.key)))
            });
        }
        rp.tr.end(root);
    }
    let rss_mb = stats::rss_mb();

    // Routing and the pin, alone.
    rp.chunked("shard.route", &direct, |c| {
        black_box(tier.route(keys.get(c.key)));
    });
    drop(tier);
    let buckets: BucketMap<Bytes, Bytes> = BucketMap::new(BUCKETS_PER_SHARD);
    rp.chunked("map.bucket_of", &direct, |c| {
        black_box(buckets.bucket_of(keys.get(c.key)));
    });
    let collector = Collector::new();
    let local = collector.register();
    rp.chunked("reclaim.pin", &direct, |_| drop(black_box(local.pin())));
    let peak_unreclaimed = T::peak_unreclaimed(&mut |h| {
        prefill(h, &keys);
        tally.add(&rp.direct(h, &direct, false).0);
    });

    // lf-metrics: the same replay, unspanned, with and without the
    // per-operation histograms.
    let mut with_hist = Vec::new();
    let mut without_hist = Vec::new();
    for _ in 0..OVERHEAD_REPS {
        for (enabled, times) in [(true, &mut with_hist), (false, &mut without_hist)] {
            let tier: T = build_tier(&keys);
            lf_metrics::set_histograms_enabled(enabled);
            let (stage, took) = rp.direct(&tier.direct(), &direct, false);
            lf_metrics::set_histograms_enabled(true);
            tally.add(&stage);
            times.push(took.as_secs_f64());
        }
    }
    let untraced_time = median(&with_hist);

    // lf-async: a window in flight, the submission alone, depth 1.
    let stack = Stack::<T>::setup(Front::Async, 0, &keys)?;
    let mut port = AsyncPort {
        service: stack.service(),
        keys: &keys,
    };
    let (stage, _) = rp.port(&mut port, &served, depth, "async.window")?;
    let window_counters = stack.teardown();
    disagreements += cross_check(&stage, &window_counters);
    tally.add(&stage);
    let service_snapshot = window_counters.service.expect("async stage has a service");

    let service = start_service(build_tier::<T>(&keys));
    tally.add(&rp.submit(&service, &served, depth));
    service.shutdown();
    let service = start_service(build_tier::<T>(&keys));
    let mut port = AsyncPort {
        service: &service,
        keys: &keys,
    };
    tally.add(&rp.port(&mut port, &served[..rtt1], 1, "async.rtt1")?.0);
    service.shutdown();

    // lf-server: one connection, bursts; then depth 1.
    let mut stack = Stack::<T>::setup(Front::Wire, 1, &keys)?;
    let mut port = stack.take_conn();
    let (stage, replies) = rp.port(&mut port, &served, depth, "server.wire1")?;
    let bytes_in = port.bytes_in;
    drop(port);
    let wire_counters = stack.teardown();
    disagreements += cross_check(&stage, &wire_counters);
    tally.add(&stage);
    let server_snapshot = wire_counters.server.expect("wire stage has a server");

    let mut stack = Stack::<T>::setup(Front::Wire, 1, &keys)?;
    let mut port = stack.take_conn();
    tally.add(&rp.port(&mut port, &served[..rtt1], 1, "server.rtt1")?.0);
    drop(port);
    stack.teardown();

    // lf-server, rendering: the replies the wire stage received.
    let mut buf = Vec::with_capacity(64 * 1024);
    let mut rendered = 0u64;
    let root = rp.tr.begin("server.render", n);
    for (i, chunk) in replies.chunks(CHUNK).enumerate() {
        buf.clear();
        rp.tr
            .record("server.render", root, i * CHUNK, chunk.len(), || {
                chunk.iter().for_each(|o| render(&mut buf, o))
            });
        rendered += buf.len() as u64;
    }
    rp.tr.end(root);
    if rendered != bytes_in {
        eprintln!("stackbench: rendered {rendered} reply bytes, the socket delivered {bytes_in}");
        disagreements += 1;
    }

    let tr = rp.tr;
    std::fs::create_dir_all(out)?;
    tr.write_jsonl(&out.join(format!("trace-{}.jsonl", w.name)))?;

    // Reduce.
    let share =
        |kind: Kind| direct.iter().filter(|(c, _)| c.kind == kind).count() as f64 / n as f64;
    let core_op_ns = [Kind::Get, Kind::Set, Kind::Del, Kind::Scan]
        .iter()
        .map(|&k| share(k) * tr.median_ns(core_span(k)))
        .sum::<f64>();
    let parse = tr.median_ns("server.parse");
    let render_ns = tr.median_ns("server.render");
    let window = tr.median_ns("async.window");
    let wire1 = tr.median_ns("server.wire1");
    let counters = telemetry.counters;

    let mut pass = Pass::new(
        w.name,
        true,
        seed,
        tally.attempted,
        tally.failed() + disagreements,
    );
    let mut put = |name, value| pass.push(Metric::new(name, value));
    put("workloads.gen_ns_per_op", tr.median_ns("workloads.gen"));
    put("server.parse_ns_per_cmd", parse);
    put("server.render_ns_per_reply", render_ns);
    put("server.bytes_out_per_cmd", bytes_in as f64 / n as f64);
    put("server.wire1_ns_per_cmd", wire1);
    put("server.conn_ns_per_cmd", wire1 - window - parse - render_ns);
    put(
        "server.cmds_per_read",
        server_snapshot.pipeline_depth.mean(),
    );
    put("server.rtt1_p50_ns", tr.median_ns("server.rtt1"));
    put(
        "server.busy",
        (server_snapshot.shed + server_snapshot.rejected) as f64,
    );
    put(
        "server.errors",
        (server_snapshot.errors + server_snapshot.protocol_errors) as f64,
    );
    put("async.submit_ns", tr.median_ns("async.submit"));
    put("async.window_ns_per_op", window);
    put("async.facade_ns_per_op", window - core_op_ns);
    put(
        "async.e2c_p50_ns",
        service_snapshot.enqueue_to_complete_ns.p50() as f64,
    );
    put(
        "async.e2c_p99_ns",
        service_snapshot.enqueue_to_complete_ns.p99() as f64,
    );
    put(
        "async.queue_depth_p99",
        service_snapshot.queue_depth.p99() as f64,
    );
    put("async.batch_size_mean", service_snapshot.batch_size.mean());
    put("async.rtt1_p50_ns", tr.median_ns("async.rtt1"));
    put("shard.route_ns", tr.median_ns("shard.route"));
    put("map.bucket_of_ns", tr.median_ns("map.bucket_of"));
    put("shard.max_ops_share", max_ops_share);
    put("core.get_ns", tr.median_ns("core.get"));
    put("core.insert_ns", tr.median_ns("core.insert"));
    put("core.remove_ns", tr.median_ns("core.remove"));
    put("core.scan_ns", tr.median_ns("core.scan"));
    put("core.op_ns", core_op_ns);
    put("core.steps_per_op", counters.steps_per_op());
    put("core.search_hops_p50", telemetry.search_hops().p50() as f64);
    put(
        "core.cas_fail_share",
        counters.cas_failures() as f64 / counters.cas_attempts().max(1) as f64,
    );
    put("reclaim.pin_ns", tr.median_ns("reclaim.pin"));
    put("reclaim.peak_unreclaimed", peak_unreclaimed as f64);
    put("harness.rss_mb", rss_mb);
    put(
        "metrics.hist_overhead_share",
        1.0 - median(&without_hist) / untraced_time,
    );
    put("ledger.closure_share", (parse + render_ns + window) / wire1);
    put(
        "harness.trace_overhead_share",
        1.0 - untraced_time / traced_time.as_secs_f64(),
    );
    pass.note("ledger.spans", tr.spans.len() as f64);
    pass.note("ledger.reply_bytes", bytes_in as f64);
    pass.note("ledger.counter_disagreements", disagreements as f64);
    let stage_self: u64 = self_times(&tr.spans)
        .iter()
        .zip(&tr.spans)
        .filter(|(_, s)| s.parent.is_none())
        .map(|(own, _)| own)
        .sum();
    pass.note("ledger.stage_self_ms", stage_self as f64 / 1e6);
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            op: 0,
            calls: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_span_less_children() {
        let spans = [
            span("stage", None, 0, 100),
            span("call", Some(0), 10, 40),
            span("call", Some(0), 50, 70),
            span("inner", Some(1), 15, 25),
            span("other", None, 100, 130),
        ];
        assert_eq!(self_times(&spans), [50, 20, 20, 10, 30]);
    }

    #[test]
    fn tracer_nests_and_divides_by_calls() {
        let mut tr = Tracer::new();
        let root = tr.begin("stage", 128);
        let got = tr.record("leaf", root, 64, 64, || 7);
        assert_eq!(got, 7);
        tr.end(root);
        assert_eq!(tr.spans[1].parent, Some(root));
        assert_eq!((tr.spans[1].op, tr.spans[1].calls), (64, 64));
        assert!(tr.spans[0].end_ns >= tr.spans[1].end_ns);
        let leaf = &tr.spans[1];
        assert_eq!(
            tr.per_call("leaf"),
            [(leaf.end_ns - leaf.start_ns) as f64 / 64.0]
        );
    }

    #[test]
    fn rendering_inverts_reply_parsing() {
        let keys = KeyTable::new();
        let cmds = [
            Kind::Get,
            Kind::Get,
            Kind::Set,
            Kind::Del,
            Kind::Scan,
            Kind::Scan,
        ];
        let outcomes = [
            Outcome::Value(Some(value(3, 9))),
            Outcome::Value(None),
            Outcome::Stored(true),
            Outcome::Removed {
                hit: true,
                value: None,
            },
            Outcome::Page {
                keys: vec![keys.get(4).clone()],
                cursor: Some(None),
            },
            Outcome::Page {
                keys: vec![keys.get(4).clone()],
                cursor: Some(Some(keys.get(4).clone())),
            },
        ];
        for (kind, outcome) in cmds.iter().zip(&outcomes) {
            let mut buf = Vec::new();
            render(&mut buf, outcome);
            let (reply, used) = resp::parse_reply(&buf).unwrap().unwrap();
            assert_eq!(used, buf.len());
            assert_eq!(&crate::front::outcome_of_reply(*kind, reply), outcome);
        }
    }
}
