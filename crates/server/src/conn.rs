//! One connection's lifecycle: read → parse a pipeline → enqueue every
//! request → await and write replies in arrival order.
//!
//! Pipelining leans on `lf-async`'s *lazy submission*: an `OpFuture`
//! enqueues on its first poll. The parse phase therefore drives each
//! future (through [`Eager`]) until its request is **in its ring** as
//! soon as its command is parsed, so N pipelined commands are all in
//! their lanes before the render phase awaits the first reply — the
//! rings overlap the work while the wire stays strictly ordered. The
//! render phase then sleeps on the pipeline's *last* request before
//! serializing from the first: nothing is written until all have
//! resolved, so the thread is woken once per pipeline, not per reply.
//!
//! Reply order alone is not RESP's whole contract: effects must be
//! ordered too, at least per key ("SET k; GET k" pipelined must read
//! the write). Two mechanisms make that hold:
//!
//! * **Lane affinity for every keyed request.** Partitioned backends
//!   already route a key's requests to one lane; for backends with no
//!   affinity of their own (plain list/skip-list tiers) the connection
//!   pins each request to `hash(key) % lanes`
//!   ([`LaneFuture::pin_lane`]), so every request touching one key
//!   shares one FIFO ring whichever tier serves it.
//! * **Enqueue before the next dispatch.** [`Eager::new`] does not
//!   return until the request is enqueued (or already resolved):
//!   under `Block` a poll bounced off a full ring is re-driven *now*,
//!   not at render time, so ring order always equals parse order.
//!
//! Together: same-key commands execute in pipeline order; cross-key
//! effect order between lanes stays unspecified (SCAN in particular
//! reads weakly consistently against in-flight writes). `SET` is a
//! single worker-side upsert request, so it also occupies exactly one
//! FIFO slot (no caller-side retry loop to interleave).
//!
//! Backpressure is protocol-visible: a request the service sheds or
//! rejects resolves this side as `-BUSY shed` / `-BUSY rejected`, one
//! reply per *command*. A multi-key command awaits **all** its sub-ops
//! (none are left detached in the rings) and reports its first busy
//! sub-op; a busy `DEL` whose other sub-ops already removed keys says
//! so in the reply (`-BUSY shed; partial: …`) rather than pretending
//! the whole command was refused.
//!
//! No epoch guard ever exists on this thread: connection code touches
//! sockets and completion cells only, and every structure access
//! happens on a lane worker. That includes SCAN: its keys are
//! RESP-encoded in place by a visitor running on the worker
//! ([`scan_page_visitor`]), and this thread only splices the finished
//! page into its reply. The `pin_hygiene` integration test pins this
//! down with the unreclaimed-gauge audit.

use std::future::Future;
use std::hash::{Hash, Hasher};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::pin::Pin;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Waker};
use std::time::Duration;

use lf_async::{Error, LaneFuture, OpFuture, Response, Service};
use lf_sched::rt;

use crate::metrics::ServerMetrics;
use crate::resp::{self, Command};
use crate::server::{trigger_stop, ByteBackend, Bytes, StopSignal};

/// Lane for a keyed request on backends with no affinity of their own:
/// a stable per-key hash, so every request touching one key shares one
/// ring and per-key effect order equals pipeline order. Ignored (by
/// [`LaneFuture::pin_lane`]'s contract) wherever the backend already
/// routes the key itself.
fn lane_of(key: &[u8], lanes: usize) -> usize {
    // One lane: nothing to choose, so nothing to hash.
    if lanes <= 1 {
        return 0;
    }
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() as usize) % lanes
}

/// A future driven at construction until its request is enqueued (the
/// polls that *submit*, by lazy submission) and awaited later,
/// preserving an early `Ready` (e.g. an immediate `Rejected`) so the
/// future is never polled after completion.
struct Eager<F: Future + LaneFuture + Unpin> {
    fut: Option<F>,
    out: Option<F::Output>,
}

impl<F: Future + LaneFuture + Unpin> Eager<F> {
    /// Drive `f` until its request is in its lane ring (or it already
    /// resolved). The submitting poll carries a no-op waker: a request
    /// that went into its ring needs nobody woken yet, and a real one
    /// would have every completion of a pipeline unpark this thread
    /// while it waits on a different request. Only a submission that a
    /// full ring bounced under `BackpressurePolicy::Block` blocks —
    /// parking, not spinning — because the pipeline's ordering contract
    /// needs requests entering the rings in parse order, so the next
    /// command must not be dispatched before this one is enqueued.
    fn new(mut f: F) -> Self {
        let mut cx = Context::from_waker(Waker::noop());
        let out = match Pin::new(&mut f).poll(&mut cx) {
            Poll::Ready(v) => Some(v),
            Poll::Pending if f.is_enqueued() => None,
            Poll::Pending => rt::block_on_until(&mut f, LaneFuture::is_enqueued),
        };
        Eager {
            fut: out.is_none().then_some(f),
            out,
        }
    }

    /// Block until the request has resolved, keeping its result for
    /// [`wait`](Self::wait).
    fn settle(&mut self) {
        if let Some(f) = self.fut.take() {
            self.out = Some(rt::block_on(f));
        }
    }

    fn wait(mut self) -> F::Output {
        self.settle();
        self.out.expect("settled future has its result")
    }
}

/// Bytes a SCAN page buffer starts with: a page of fifty twelve-byte
/// keys in wire form. A constant of the server, never the client's
/// `COUNT` — a hostile `COUNT 4096` reserves exactly as much as
/// `COUNT 1`, and a page that does need more grows as it fills.
const SCAN_PAGE_BYTES: usize = 1024;

/// One SCAN page as its visitor leaves it: the keys already in wire
/// form, so rendering is a splice.
#[derive(Default)]
struct ScanPage {
    /// `$len\r\nkey\r\n` for each key of the page, in order.
    keys: Vec<u8>,
    /// How many keys `keys` holds.
    count: usize,
    /// Where the last key's own bytes lie in `keys` (the next cursor).
    last: Range<usize>,
}

/// The visitor a SCAN hands to [`Service::scan_with`]; it leaves its
/// page in `out`. It runs on the lane worker under the batch pin and
/// only appends to a buffer: each key is encoded straight from the
/// node (no key or value is cloned; values are not looked at), and the
/// closing call parks the page with the one lock of the whole scan.
fn scan_page_visitor(
    out: Arc<Mutex<ScanPage>>,
) -> impl FnMut(Option<(&Bytes, &Bytes)>) -> bool + Send + 'static {
    let mut page = ScanPage {
        keys: Vec::with_capacity(SCAN_PAGE_BYTES),
        ..ScanPage::default()
    };
    move |pair: Option<(&Bytes, &Bytes)>| {
        match pair {
            Some((key, _)) => {
                resp::write_bulk(&mut page.keys, key);
                let end = page.keys.len() - 2;
                page.last = end - key.len()..end;
                page.count += 1;
            }
            None => *out.lock().unwrap_or_else(|e| e.into_inner()) = std::mem::take(&mut page),
        }
        true
    }
}

/// Whether this pre-rendered reply counts as a successful command.
enum ReadyKind {
    Ok,
    CommandError,
}

/// One parsed command, already submitted where it maps to ring
/// requests, waiting for the render phase.
enum Pending<B: ByteBackend> {
    /// Rendered at dispatch time (PING, INFO, command errors).
    Ready(Vec<u8>, ReadyKind),
    /// GET — bulk value or null.
    Get(Eager<OpFuture<B>>),
    /// SET — one worker-side upsert request.
    Set(Eager<OpFuture<B>>),
    /// DEL / EXISTS — integer count of hits across the keyed sub-ops.
    /// `write` marks DEL: its busy reply must disclose partial
    /// application.
    Count {
        futs: Vec<Eager<OpFuture<B>>>,
        write: bool,
    },
    /// MGET — array of bulk-or-null in key order.
    MGet(Vec<Eager<OpFuture<B>>>),
    /// SCAN — a page of keys plus the continuation cursor. `page` is
    /// where the request's visitor leaves the encoded keys.
    Scan {
        fut: Eager<OpFuture<B>>,
        page: Arc<Mutex<ScanPage>>,
        count: usize,
    },
    /// QUIT — `+OK`, then close.
    Quit,
    /// SHUTDOWN — `+OK`, then stop the whole server.
    Shutdown,
}

impl<B: ByteBackend> Pending<B> {
    /// Block until this command's last ring request has resolved.
    fn settle(&mut self) {
        match self {
            Pending::Get(e) | Pending::Set(e) => e.settle(),
            Pending::Count { futs, .. } | Pending::MGet(futs) => {
                if let Some(e) = futs.last_mut() {
                    e.settle();
                }
            }
            Pending::Scan { fut, .. } => fut.settle(),
            Pending::Ready(..) | Pending::Quit | Pending::Shutdown => {}
        }
    }
}

/// Serve one accepted connection until EOF, error, QUIT, a protocol
/// error, or server stop.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run<B: ByteBackend>(
    service: &Arc<Service<B>>,
    metrics: &Arc<ServerMetrics>,
    stop: &Arc<StopSignal>,
    local_addr: SocketAddr,
    mut stream: TcpStream,
    id: u64,
    read_timeout: Duration,
    allow_shutdown: bool,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(read_timeout));
    let hb = service
        .watchdog()
        .map(|wd| wd.register(&format!("conn-{id}")));
    let mut inbuf: Vec<u8> = Vec::with_capacity(16 * 1024);
    let mut chunk = [0u8; 16 * 1024];
    let mut out: Vec<u8> = Vec::with_capacity(16 * 1024);
    loop {
        if stop.is_set() {
            break;
        }
        if let Some(h) = &hb {
            h.idle();
        }
        let n = match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                continue
            }
            Err(_) => break,
        };
        if let Some(h) = &hb {
            h.busy();
        }
        inbuf.extend_from_slice(&chunk[..n]);
        // Parse phase: every complete frame becomes a pending reply,
        // and every ring-mapped request enters its lane *now*, in
        // parse order.
        let mut pending: Vec<Pending<B>> = Vec::new();
        let mut consumed = 0;
        let parse_err = loop {
            match resp::parse_command(&inbuf[consumed..]) {
                Ok(Some((args, used))) => {
                    consumed += used;
                    if args.is_empty() {
                        continue;
                    }
                    pending.push(dispatch(service, metrics, args, allow_shutdown));
                }
                Ok(None) => break None,
                Err(e) => break Some(e),
            }
        };
        inbuf.drain(..consumed);
        if !pending.is_empty() {
            metrics.record_pipeline(pending.len() as u64);
        }
        // Render phase: await and serialize strictly in arrival order.
        // Nothing is written before the whole pipeline has resolved, so
        // sleep on its last request first: a lane completes in FIFO
        // order, so everything sharing that lane is done by then and
        // the thread was woken once, not once per reply it caught up
        // with. (Requests on other lanes are awaited in order below.)
        if let Some(last) = pending.last_mut() {
            last.settle();
        }
        out.clear();
        let mut close = false;
        for p in pending {
            render(metrics, stop, local_addr, p, &mut out, &mut close);
            if let Some(h) = &hb {
                h.beat();
            }
            if close {
                break;
            }
        }
        if let Some(e) = parse_err {
            metrics.record_protocol_error();
            resp::write_error(&mut out, &format!("ERR {e}"));
            close = true;
        }
        if !out.is_empty() && stream.write_all(&out).is_err() {
            break;
        }
        if close {
            break;
        }
    }
    if let Some(h) = &hb {
        h.idle();
    }
}

/// Turn one argument vector into a [`Pending`] reply, submitting its
/// ring requests (driven to enqueue) as a side effect.
fn dispatch<B: ByteBackend>(
    service: &Service<B>,
    metrics: &ServerMetrics,
    args: Vec<Bytes>,
    allow_shutdown: bool,
) -> Pending<B> {
    let cmd = match Command::parse(args) {
        Ok(c) => c,
        Err(msg) => {
            let mut buf = Vec::new();
            resp::write_error(&mut buf, &msg);
            return Pending::Ready(buf, ReadyKind::CommandError);
        }
    };
    let lanes = service.lane_count();
    match cmd {
        Command::Ping(msg) => {
            let mut buf = Vec::new();
            match msg {
                Some(m) => resp::write_bulk(&mut buf, &m),
                None => resp::write_simple(&mut buf, "PONG"),
            }
            Pending::Ready(buf, ReadyKind::Ok)
        }
        Command::Get(k) => {
            let lane = lane_of(&k, lanes);
            Pending::Get(Eager::new(service.get(k).pin_lane(lane)))
        }
        Command::Set(key, value) => {
            let lane = lane_of(&key, lanes);
            Pending::Set(Eager::new(service.upsert(key, value).pin_lane(lane)))
        }
        Command::Del(keys) => Pending::Count {
            futs: keys
                .into_iter()
                .map(|k| {
                    let lane = lane_of(&k, lanes);
                    Eager::new(service.remove(k).pin_lane(lane))
                })
                .collect(),
            write: true,
        },
        Command::Exists(keys) => Pending::Count {
            futs: keys
                .into_iter()
                .map(|k| {
                    let lane = lane_of(&k, lanes);
                    Eager::new(service.contains(k).pin_lane(lane))
                })
                .collect(),
            write: false,
        },
        Command::MGet(keys) => Pending::MGet(
            keys.into_iter()
                .map(|k| {
                    let lane = lane_of(&k, lanes);
                    Eager::new(service.get(k).pin_lane(lane))
                })
                .collect(),
        ),
        Command::Scan { after, count } => {
            if !service.supports_scan() {
                let mut buf = Vec::new();
                resp::write_error(
                    &mut buf,
                    "ERR SCAN requires the ordered (skip-list) tier; this server fronts a hash tier",
                );
                return Pending::Ready(buf, ReadyKind::CommandError);
            }
            // No key, no lane: a scan crosses every partition and
            // reads weakly consistently against in-flight writes.
            let page = Arc::new(Mutex::new(ScanPage::default()));
            let visitor = scan_page_visitor(Arc::clone(&page));
            Pending::Scan {
                fut: Eager::new(service.scan_with(after, count, visitor)),
                page,
                count,
            }
        }
        Command::Info => {
            let mut buf = Vec::new();
            resp::write_bulk(&mut buf, info_text(service, metrics).as_bytes());
            Pending::Ready(buf, ReadyKind::Ok)
        }
        Command::Quit => Pending::Quit,
        Command::Shutdown => {
            if allow_shutdown {
                Pending::Shutdown
            } else {
                let mut buf = Vec::new();
                resp::write_error(&mut buf, "ERR SHUTDOWN disabled on this server");
                Pending::Ready(buf, ReadyKind::CommandError)
            }
        }
    }
}

/// Serialize a service-layer error as its protocol form, bumping the
/// matching counter. `-BUSY` is the admission controller speaking: the
/// command was refused (Reject) or evicted (Shed), never silently
/// dropped. `detail` (a `; …` suffix) lets multi-key commands disclose
/// partial application; the `BUSY shed` / `BUSY rejected` prefix stays
/// machine-matchable either way.
fn write_busy_detail(
    out: &mut Vec<u8>,
    e: Error,
    detail: Option<&str>,
    metrics: &ServerMetrics,
    close: &mut bool,
) {
    let detail = detail.unwrap_or("");
    match e {
        Error::Shed => {
            metrics.record_shed();
            resp::write_error(out, &format!("BUSY shed{detail}"));
        }
        Error::Rejected => {
            metrics.record_rejected();
            resp::write_error(out, &format!("BUSY rejected{detail}"));
        }
        Error::Shutdown => {
            metrics.record_error();
            resp::write_error(out, "ERR server shutting down");
            *close = true;
        }
    }
}

fn write_busy(out: &mut Vec<u8>, e: Error, metrics: &ServerMetrics, close: &mut bool) {
    write_busy_detail(out, e, None, metrics, close);
}

/// Await one pending reply and append its wire form to `out`. Exactly
/// one of ok / shed / rejected / errors is recorded per command — the
/// accounting identity (`commands == ok + shed + rejected + errors`,
/// DESIGN.md §9.9) is structural, not reconciled.
fn render<B: ByteBackend>(
    metrics: &ServerMetrics,
    stop: &StopSignal,
    local_addr: SocketAddr,
    pending: Pending<B>,
    out: &mut Vec<u8>,
    close: &mut bool,
) {
    match pending {
        Pending::Ready(bytes, kind) => {
            out.extend_from_slice(&bytes);
            match kind {
                ReadyKind::Ok => metrics.record_ok(),
                ReadyKind::CommandError => metrics.record_error(),
            }
        }
        Pending::Get(e) => match e.wait() {
            Ok(Response::Value(v)) => {
                match v {
                    Some(v) => resp::write_bulk(out, &v),
                    None => resp::write_null(out),
                }
                metrics.record_ok();
            }
            Ok(_) => {
                metrics.record_error();
                resp::write_error(out, "ERR internal response mismatch");
            }
            Err(e) => write_busy(out, e, metrics, close),
        },
        Pending::Set(e) => match e.wait() {
            Ok(Response::Inserted(true)) => {
                resp::write_simple(out, "OK");
                metrics.record_ok();
            }
            Ok(Response::Inserted(false)) => {
                metrics.record_error();
                resp::write_error(out, "ERR SET retry budget exhausted");
            }
            Ok(_) => {
                metrics.record_error();
                resp::write_error(out, "ERR internal response mismatch");
            }
            Err(e) => write_busy(out, e, metrics, close),
        },
        Pending::Count { futs, write } => {
            // Await *every* sub-op: none stay detached in the rings,
            // so the reply below describes what actually happened.
            let total = futs.len();
            let mut hits: i64 = 0;
            let mut first_err: Option<Error> = None;
            for f in futs {
                match f.wait() {
                    Ok(r) => hits += i64::from(response_hit(&r)),
                    Err(e) => first_err = first_err.or(Some(e)),
                }
            }
            match first_err {
                None => {
                    resp::write_int(out, hits);
                    metrics.record_ok();
                }
                Some(e) => {
                    // A busy DEL may have removed some keys before a
                    // later sub-op was refused: say so, instead of
                    // implying the command had no effect.
                    let detail = (write && hits > 0)
                        .then(|| format!("; partial: {hits} of {total} keys removed"));
                    write_busy_detail(out, e, detail.as_deref(), metrics, close);
                }
            }
        }
        Pending::MGet(futs) => {
            // Await every sub-op (as for Count) even though reads have
            // no effects to disclose: detached reads would still hold
            // ring slots and skew the service-side accounting.
            let mut values: Vec<Option<Bytes>> = Vec::with_capacity(futs.len());
            let mut first_err: Option<Error> = None;
            for f in futs {
                match f.wait() {
                    Ok(Response::Value(v)) => values.push(v),
                    Ok(_) => values.push(None),
                    Err(e) => first_err = first_err.or(Some(e)),
                }
            }
            if let Some(e) = first_err {
                write_busy(out, e, metrics, close);
                return;
            }
            resp::write_array_header(out, values.len());
            for v in values {
                match v {
                    Some(v) => resp::write_bulk(out, &v),
                    None => resp::write_null(out),
                }
            }
            metrics.record_ok();
        }
        Pending::Scan { fut, page, count } => match fut.wait() {
            Ok(_) => {
                let page = std::mem::take(&mut *page.lock().unwrap_or_else(|e| e.into_inner()));
                resp::write_array_header(out, 2);
                // A short page means the keyspace is exhausted: cursor
                // wraps to "0" exactly as Redis' SCAN contract reads.
                if page.count == count {
                    resp::write_bulk_hex(out, &page.keys[page.last]);
                } else {
                    resp::write_bulk(out, b"0");
                }
                resp::write_array_header(out, page.count);
                out.extend_from_slice(&page.keys);
                metrics.record_ok();
            }
            Err(e) => write_busy(out, e, metrics, close),
        },
        Pending::Quit => {
            resp::write_simple(out, "OK");
            metrics.record_ok();
            *close = true;
        }
        Pending::Shutdown => {
            resp::write_simple(out, "OK");
            metrics.record_ok();
            trigger_stop(stop, local_addr);
            *close = true;
        }
    }
}

/// 1 when the response counts as a hit for DEL/EXISTS accounting.
fn response_hit(resp: &Response<Bytes>) -> bool {
    match resp {
        Response::Removed(v) => v.is_some(),
        Response::Found(b) | Response::Inserted(b) | Response::Visited(b) => *b,
        Response::Value(v) => v.is_some(),
        Response::Scanned(n) | Response::Len(n) => *n > 0,
    }
}

/// The `INFO` payload: server counters, service counters, controller
/// state, and per-lane batch sizes, in Redis' `key:value` line style.
fn info_text<B: ByteBackend>(service: &Service<B>, metrics: &ServerMetrics) -> String {
    use std::fmt::Write as _;
    let s = metrics.snapshot();
    let svc = service.metrics();
    let mut out = String::new();
    let _ = writeln!(out, "# Server");
    let _ = writeln!(out, "connections_accepted:{}", s.accepted);
    let _ = writeln!(out, "connections_active:{}", s.active);
    let _ = writeln!(out, "commands:{}", s.commands);
    let _ = writeln!(out, "commands_ok:{}", s.ok);
    let _ = writeln!(out, "commands_shed:{}", s.shed);
    let _ = writeln!(out, "commands_rejected:{}", s.rejected);
    let _ = writeln!(out, "commands_errors:{}", s.errors);
    let _ = writeln!(out, "protocol_errors:{}", s.protocol_errors);
    let _ = writeln!(out, "pipeline_depth_p99:{}", s.pipeline_depth.p99());
    let _ = writeln!(out, "# Service");
    let _ = writeln!(out, "keys:{}", service.len());
    let _ = writeln!(out, "enqueued:{}", svc.enqueued);
    let _ = writeln!(out, "completed:{}", svc.completed);
    let _ = writeln!(out, "rejected:{}", svc.rejected);
    let _ = writeln!(out, "shed:{}", svc.shed);
    let _ = writeln!(out, "e2c_p99_ns:{}", svc.enqueue_to_complete_ns.p99());
    let _ = writeln!(out, "# Controller");
    let batches: Vec<String> = (0..service.lane_count())
        .map(|l| service.batch_max(l).to_string())
        .collect();
    let _ = writeln!(out, "lane_batch_max:{}", batches.join(","));
    let _ = writeln!(out, "queue_capacity:{}", service.queue_capacity());
    let _ = writeln!(out, "ctl_grows:{}", s.ctl_grows);
    let _ = writeln!(out, "ctl_shrinks:{}", s.ctl_shrinks);
    let _ = writeln!(out, "ctl_last_p99_ns:{}", s.ctl_last_p99_ns);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The visitor is built before the request leaves the connection
    /// thread and is told no page size: whatever `COUNT` the client
    /// sent, the buffer it reserves is the server's constant, and it
    /// grows only as keys actually arrive.
    #[test]
    fn scan_page_is_encoded_in_place_and_sized_by_the_server() {
        let slot = Arc::new(Mutex::new(ScanPage::default()));
        let mut visit = scan_page_visitor(Arc::clone(&slot));
        let keys: [&[u8]; 3] = [b"", b"k1", b"0123456789ab"];
        for k in keys {
            assert!(visit(Some((&k.to_vec(), &b"unread value".to_vec()))));
            // Nothing reaches the slot before the closing call.
            assert_eq!(slot.lock().unwrap().count, 0);
        }
        visit(None);
        let page = std::mem::take(&mut *slot.lock().unwrap());
        assert_eq!(page.count, 3);
        assert_eq!(page.keys, b"$0\r\n\r\n$2\r\nk1\r\n$12\r\n0123456789ab\r\n");
        assert_eq!(&page.keys[page.last], b"0123456789ab");
        assert_eq!(page.keys.capacity(), SCAN_PAGE_BYTES);
    }
}
