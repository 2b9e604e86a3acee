//! The measured pass: set the stack up, warm it, drive it from two
//! closed-loop generators for the window, check every answer and the
//! layers' own counters, and reduce the samples to the end-to-end
//! metrics. No span is recorded here.

use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lf_async::{BackpressurePolicy, Service, ServiceBuilder, ServiceSnapshot};
use lf_server::{Server, ServerBuilder, ServerSnapshot};

use crate::front::{AsyncPort, DirectPort, Port, WirePort};
use crate::gen::{Cmd, Expect, KeyTable, Model, OpGen, Outcome, SetRule, Stripe, Tally};
use crate::report::{Metric, Pass};
use crate::spec::{
    Front, Workload, BATCH_MAX, GENERATORS, LANE_WORKERS, QUEUE_CAPACITY, READ_TIMEOUT, SEGMENTS,
    SETUP_REPS, WARMUP_SHARE,
};
use crate::stats;
use crate::tier::{prefill, Tier};

/// A service with every setting pinned.
pub fn start_service<T: Tier>(tier: T) -> Arc<Service<T>> {
    Arc::new(
        ServiceBuilder::new()
            .workers(LANE_WORKERS)
            .queue_capacity(QUEUE_CAPACITY)
            .batch_max(BATCH_MAX)
            .policy(BackpressurePolicy::Block)
            .build(tier),
    )
}

/// A server with every setting pinned: loopback, ephemeral port, no
/// adaptive controller, `SHUTDOWN` refused.
pub fn start_server<T: Tier>(service: &Arc<Service<T>>) -> io::Result<Server<T>> {
    ServerBuilder::new()
        .addr("127.0.0.1:0")
        .read_timeout(READ_TIMEOUT)
        .allow_shutdown(false)
        .serve(Arc::clone(service))
}

/// A prefilled tier.
pub fn build_tier<T: Tier>(keys: &KeyTable) -> T {
    let tier = T::build();
    prefill(&tier.direct(), keys);
    tier
}

/// The part of the stack a workload's front needs, ready to be driven.
pub struct Stack<'k, T: Tier> {
    direct: Option<T>,
    service: Option<Arc<Service<T>>>,
    server: Option<Server<T>>,
    conns: Vec<WirePort<'k>>,
}

/// What the layers counted, read after everything stopped.
pub struct Counters {
    pub server: Option<ServerSnapshot>,
    pub service: Option<ServiceSnapshot>,
}

impl<'k, T: Tier> Stack<'k, T> {
    /// Build backend, prefill, start service and server, connect — as
    /// far as `front` reaches.
    pub fn setup(front: Front, conns: usize, keys: &'k KeyTable) -> io::Result<Self> {
        let tier = build_tier::<T>(keys);
        let mut stack = Stack {
            direct: None,
            service: None,
            server: None,
            conns: Vec::new(),
        };
        if front == Front::Direct {
            stack.direct = Some(tier);
            return Ok(stack);
        }
        let service = start_service(tier);
        if front == Front::Wire {
            let server = start_server(&service)?;
            for _ in 0..conns {
                stack
                    .conns
                    .push(WirePort::connect(server.local_addr(), keys)?);
            }
            stack.server = Some(server);
        }
        stack.service = Some(service);
        Ok(stack)
    }

    pub fn tier(&self) -> &T {
        match (&self.direct, &self.service) {
            (Some(t), _) => t,
            (None, Some(s)) => s.backend(),
            (None, None) => unreachable!("setup builds a tier or a service"),
        }
    }

    pub fn service(&self) -> &Service<T> {
        self.service.as_deref().expect("front has a service")
    }

    pub fn take_conn(&mut self) -> WirePort<'k> {
        self.conns.pop().expect("a connection per generator")
    }

    /// Stop server then service, joining their threads, so the
    /// snapshots are final.
    pub fn teardown(mut self) -> Counters {
        self.conns.clear();
        let server = self.server.take().map(|s| {
            let metrics = Arc::clone(s.metrics());
            s.stop();
            metrics.snapshot()
        });
        let service = self.service.take().map(|s| {
            s.shutdown();
            s.metrics()
        });
        Counters { server, service }
    }
}

/// When the window opens and closes.
#[derive(Clone, Copy)]
pub struct Window {
    open: Instant,
    close: Instant,
    segment: Duration,
}

impl Window {
    pub fn starting_now(seconds: f64) -> Window {
        let warmup = Duration::from_secs_f64(seconds * WARMUP_SHARE);
        let measured = Duration::from_secs_f64(seconds) - warmup;
        let open = Instant::now() + warmup;
        Window {
            open,
            close: open + measured,
            segment: measured / SEGMENTS as u32,
        }
    }

    /// The segment `at` falls in; `None` during warm-up and after the
    /// close.
    fn segment_of(&self, at: Instant) -> Option<usize> {
        let since = at.checked_duration_since(self.open)?;
        let i = (since.as_nanos() / self.segment.as_nanos()) as usize;
        (i < SEGMENTS).then_some(i)
    }
}

/// One generator's samples, by segment.
pub struct Samples {
    ops: [u64; SEGMENTS],
    lat: Vec<Vec<f32>>,
}

impl Samples {
    fn new() -> Self {
        Samples {
            ops: [0; SEGMENTS],
            lat: (0..SEGMENTS).map(|_| Vec::with_capacity(1 << 18)).collect(),
        }
    }

    fn merge(&mut self, other: Samples) {
        for (i, lat) in other.lat.into_iter().enumerate() {
            self.ops[i] += other.ops[i];
            self.lat[i].extend(lat);
        }
    }
}

/// Generate, send, check, record — until the window closes or the
/// port breaks. Commands in flight when a socket fails count as lost.
fn closed_loop(
    port: &mut impl Port,
    mut gen: OpGen,
    mut model: Model,
    depth: usize,
    window: Window,
    keys: &KeyTable,
) -> (Tally, Samples) {
    let mut tally = Tally::default();
    let mut samples = Samples::new();
    let mut cmds: Vec<Cmd> = Vec::with_capacity(depth);
    let mut expects: Vec<Expect> = Vec::with_capacity(depth);
    let mut outcomes: Vec<Outcome> = Vec::with_capacity(depth);
    let mut lat: Vec<f32> = Vec::with_capacity(depth);
    while Instant::now() < window.close {
        cmds.clear();
        expects.clear();
        outcomes.clear();
        lat.clear();
        for _ in 0..depth {
            let (cmd, expect) = model.plan(gen.next_op());
            cmds.push(cmd);
            expects.push(expect);
        }
        let io = port.round(&cmds, &mut outcomes, &mut lat);
        let done = Instant::now();
        let before = tally.failed();
        for (expect, got) in expects.iter().zip(&outcomes) {
            tally.check(expect, got, keys);
        }
        if let Err(e) = io {
            let lost = (depth - outcomes.len()) as u64;
            eprintln!("stackbench: generator stopped, {lost} commands lost: {e}");
            tally.attempted += lost;
            tally.io += lost;
            break;
        }
        // Only rounds answered in full and correctly count as work done.
        if tally.failed() == before {
            if let Some(seg) = window.segment_of(done) {
                samples.ops[seg] += depth as u64;
                samples.lat[seg].extend_from_slice(&lat);
            }
        }
    }
    (tally, samples)
}

/// Run the workload's measured pass.
pub fn measure<T: Tier>(w: &Workload, seed: u64, seconds: f64) -> io::Result<Pass> {
    let keys = KeyTable::new();
    // Set-up several times; the last one is driven.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut stack = None;
    for _ in 0..SETUP_REPS {
        if let Some(prev) = stack.take() {
            Stack::<T>::teardown(prev);
        }
        let start = Instant::now();
        stack = Some(Stack::<T>::setup(w.front, GENERATORS, &keys)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut stack = stack.expect("SETUP_REPS > 0");
    let conns: Vec<Option<WirePort>> = (0..GENERATORS)
        .map(|_| (w.front == Front::Wire).then(|| stack.take_conn()))
        .collect();

    let rule = match w.front {
        Front::Direct => SetRule::Insert,
        Front::Wire | Front::Async => SetRule::Upsert,
    };
    let window = Window::starting_now(seconds);
    let (parts, cpu_ns) = std::thread::scope(|s| {
        let generators: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(i, conn)| {
                let (stack, keys) = (&stack, &keys);
                s.spawn(move || {
                    let stripe = Stripe {
                        me: i as u32,
                        of: GENERATORS as u32,
                    };
                    let gen = OpGen::new(w, seed, stripe);
                    let model = Model::new(stripe, rule);
                    match w.front {
                        Front::Wire => {
                            let mut port = conn.expect("a connection per generator");
                            closed_loop(&mut port, gen, model, w.depth, window, keys)
                        }
                        Front::Async => {
                            let mut port = AsyncPort {
                                service: stack.service(),
                                keys,
                            };
                            closed_loop(&mut port, gen, model, w.depth, window, keys)
                        }
                        Front::Direct => {
                            // Handles are per thread: registered here.
                            let mut port = DirectPort {
                                handle: stack.tier().direct(),
                                keys,
                            };
                            closed_loop(&mut port, gen, model, w.depth, window, keys)
                        }
                    }
                })
            })
            .collect();
        std::thread::sleep(window.open.saturating_duration_since(Instant::now()));
        let cpu_open = stats::process_cpu_ns();
        std::thread::sleep(window.close.saturating_duration_since(Instant::now()));
        let cpu_ns = stats::process_cpu_ns() - cpu_open;
        let parts: Vec<(Tally, Samples)> = generators
            .into_iter()
            .map(|g| g.join().expect("generator thread"))
            .collect();
        (parts, cpu_ns)
    });

    let mut tally = Tally::default();
    let mut samples = Samples::new();
    for (t, s) in parts {
        tally.add(&t);
        samples.merge(s);
    }
    let counters = stack.teardown();
    let disagreements = cross_check(&tally, &counters);

    let segment_s = window.segment.as_secs_f64();
    let rates: Vec<f64> = samples.ops.iter().map(|&n| n as f64 / segment_s).collect();
    let p99s: Vec<f64> = samples
        .lat
        .iter_mut()
        .map(|seg| stats::percentile_f32(seg, 99.0))
        .collect();
    let mut all: Vec<f32> = samples.lat.into_iter().flatten().collect();
    let measured_ops: u64 = samples.ops.iter().sum();

    let mut pass = Pass::new(
        w.name,
        false,
        seed,
        tally.attempted,
        tally.failed() + disagreements,
    );
    pass.push(Metric::new("ops_per_s", stats::median(&rates)));
    pass.push(Metric::new("lat_p50_ns", stats::percentile_f32(&mut all, 50.0)).samples(all.len()));
    pass.push(Metric::new("lat_p99_ns", stats::median(&p99s)).samples(all.len() / SEGMENTS));
    pass.push(Metric::new(
        "cpu_ns_per_op",
        cpu_ns as f64 / measured_ops.max(1) as f64,
    ));
    pass.push(Metric::new("setup_s", stats::median(&setup_s)).samples(SETUP_REPS));
    pass.note("harness.seg_spread", stats::iqr_share(&rates));
    pass.note("harness.busy", tally.busy as f64);
    pass.note("harness.errors", (tally.errors + tally.io) as f64);
    pass.note("harness.mismatches", tally.mismatches as f64);
    pass.note("harness.counter_disagreements", disagreements as f64);
    Ok(pass)
}

/// The layers' counters must tell the same story as the generators'
/// tallies (`PING`s of the connects included). Returns how many
/// comparisons disagree.
pub fn cross_check(tally: &Tally, counters: &Counters) -> u64 {
    let mut pairs: Vec<(&str, u64, u64)> = Vec::new();
    let sent = tally.attempted - tally.io;
    if let Some(s) = &counters.server {
        let pings = s.accepted;
        pairs.push(("server.commands", s.commands, sent + pings));
        pairs.push(("server.ok", s.ok, sent + pings - tally.busy - tally.errors));
        pairs.push(("server.busy", s.shed + s.rejected, tally.busy));
        pairs.push(("server.errors", s.errors + s.protocol_errors, tally.errors));
    }
    if let Some(s) = &counters.service {
        pairs.push(("service.enqueued", s.enqueued, sent));
        pairs.push(("service.completed", s.completed, sent - tally.busy));
        pairs.push(("service.busy", s.shed + s.rejected, tally.busy));
    }
    let mut wrong = 0;
    for (name, layer, client) in pairs {
        if layer != client {
            eprintln!("stackbench: {name} is {layer}, the generators counted {client}");
            wrong += 1;
        }
    }
    wrong
}
