//! One connection's lifecycle: read → parse a pipeline → run it as one
//! batch → write replies in arrival order.
//!
//! The parse phase turns a whole read chunk into pending replies:
//! PING, INFO and command errors are rendered on the spot, and every
//! keyed command appends its requests to the pipeline's one request
//! vector (`DEL`/`EXISTS`/`MGET` one per key, `SET` one upsert, `SCAN`
//! one page walk). The vector goes to `lf-async` as a single
//! [`Service::batch_on`]: a lane the pipeline touches that is idle runs
//! its leg right here, on this connection's handle, and every other leg
//! takes one ring slot on its lane — so ring occupancy is counted in
//! *pipelines*, not commands — and the thread sleeps once, until every
//! queued cell has completed. An uncontended pipeline of point commands
//! never touches a ring, a worker or a waker. The render phase then
//! walks the pending replies in arrival order, each taking its
//! requests' outcomes off the front of the batch's result vector.
//!
//! Reply order alone is not RESP's whole contract: effects must be
//! ordered too, at least per key ("SET k; GET k" pipelined must read
//! the write). The batch gives that by construction: it keeps one leg
//! per lane, every request touching one key lands on the same lane
//! (the backend's partition affinity, or the batch's one lane on tiers
//! without it), and whoever holds the lane — its worker, or this thread
//! while the lane is idle — runs a leg's requests back to back in parse
//! order. Cross-key effect order between lanes stays unspecified (SCAN
//! in particular reads weakly consistently against in-flight writes).
//! `SET` is a single upsert request, so no caller-side retry loop can
//! interleave with later commands. Parsing stops at `QUIT` (and an
//! allowed `SHUTDOWN`): nothing pipelined behind it runs.
//!
//! Backpressure is protocol-visible: a request the service sheds or
//! rejects resolves this side as `-BUSY shed` / `-BUSY rejected`, one
//! reply per *command*. The service refuses whole cells, so a refusal
//! reaches every command of the pipeline on that lane. A multi-key
//! command reports its first busy sub-request; a busy `DEL` whose other
//! sub-requests, on other lanes, already removed keys says so in the
//! reply (`-BUSY shed; partial: …`) rather than pretending the whole
//! command was refused.
//!
//! No epoch guard outlives a pipeline on this thread. The connection's
//! structure handle is made on its first keyed pipeline (a connection
//! that never sends one never registers), and an inline leg runs under
//! one amortized announcement that `batch_on` withdraws before it
//! returns — before any socket call. When a read times out the handle
//! flushes, so what the connection retired is freed while it idles, and
//! it is dropped when the connection closes. SCAN always queues: its
//! keys are RESP-encoded in place by a visitor running on the worker
//! ([`scan_page_visitor`]), and this thread only splices the finished
//! page into its reply. The `pin_hygiene` integration test pins this
//! down with the unreclaimed-gauge audit.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use lf_async::{BackendHandle as _, Error, Request, Response, Service};
use lf_sched::rt;

use crate::metrics::ServerMetrics;
use crate::resp::{self, Command};
use crate::server::{trigger_stop, ByteBackend, Bytes, StopSignal};

/// What one ring request came to.
type Outcome = Result<Response<Bytes>, Error>;

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

/// The visitor a SCAN's `Request::Scan` carries (the
/// [`Service::scan_with`] contract); it leaves its page in `out`. It runs on the lane worker under the batch pin and
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

/// One parsed command waiting for the render phase. A keyed command's
/// requests sit in the pipeline's batch, in parse order; the variant
/// says how many it has there and how to render their outcomes.
enum Pending {
    /// Rendered at dispatch time (PING, INFO, command errors).
    Ready(Vec<u8>, ReadyKind),
    /// GET — bulk value or null.
    Get,
    /// SET — one upsert request.
    Set,
    /// DEL / EXISTS — integer count of hits across `keys` requests.
    /// `write` marks DEL: its busy reply must disclose partial
    /// application.
    Count { keys: usize, write: bool },
    /// MGET — array of bulk-or-null over `.0` requests, in key order.
    MGet(usize),
    /// SCAN — a page of keys plus the continuation cursor. `page` is
    /// where the request's visitor leaves the encoded keys.
    Scan {
        page: Arc<Mutex<ScanPage>>,
        count: usize,
    },
    /// QUIT — `+OK`, then close.
    Quit,
    /// SHUTDOWN — `+OK`, then stop the whole server.
    Shutdown,
}

impl Pending {
    /// How many of the batch's requests are this command's.
    fn requests(&self) -> usize {
        match self {
            Pending::Get | Pending::Set | Pending::Scan { .. } => 1,
            Pending::Count { keys: n, .. } | Pending::MGet(n) => *n,
            Pending::Ready(..) | Pending::Quit | Pending::Shutdown => 0,
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
    // Made on the first keyed pipeline, not at accept.
    let mut handle: Option<B::Handle<'_>> = None;
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
                // Idle: free what this connection's inline legs retired.
                if let Some(h) = &handle {
                    h.flush_reclamation();
                }
                continue;
            }
            Err(_) => break,
        };
        if let Some(h) = &hb {
            h.busy();
        }
        inbuf.extend_from_slice(&chunk[..n]);
        // Parse phase: every complete frame becomes a pending reply,
        // and its ring requests join the pipeline's batch in parse
        // order. Nothing behind a QUIT or SHUTDOWN is parsed.
        let mut pending: Vec<Pending> = Vec::new();
        let mut reqs: Vec<Request<Bytes, Bytes>> = Vec::new();
        let mut consumed = 0;
        let parse_err = loop {
            match resp::parse_command(&inbuf[consumed..]) {
                Ok(Some((args, used))) => {
                    consumed += used;
                    if args.is_empty() {
                        continue;
                    }
                    let p = dispatch(service, metrics, args, allow_shutdown, &mut reqs);
                    let last = matches!(p, Pending::Quit | Pending::Shutdown);
                    pending.push(p);
                    if last {
                        break None;
                    }
                }
                Ok(None) => break None,
                Err(e) => break Some(e),
            }
        };
        inbuf.drain(..consumed);
        if !pending.is_empty() {
            metrics.record_pipeline(pending.len() as u64);
        }
        // One batch, at most one sleep: idle lanes' legs run inline, and
        // the thread is woken when the last queued cell completes, not
        // once per reply.
        let outcomes = if reqs.is_empty() {
            Vec::new()
        } else {
            let h = handle.get_or_insert_with(|| service.handle());
            rt::block_on(service.batch_on(h, reqs))
        };
        // Render phase: serialize strictly in arrival order, each
        // command taking its outcomes off the front.
        let mut rest = &outcomes[..];
        out.clear();
        let mut close = false;
        for p in pending {
            let (mine, after) = rest.split_at(p.requests());
            rest = after;
            render(metrics, stop, local_addr, p, mine, &mut out, &mut close);
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

/// Turn one argument vector into a [`Pending`] reply, appending its
/// ring requests to the pipeline's batch `reqs`.
fn dispatch<B: ByteBackend>(
    service: &Service<B>,
    metrics: &ServerMetrics,
    args: Vec<Bytes>,
    allow_shutdown: bool,
    reqs: &mut Vec<Request<Bytes, Bytes>>,
) -> Pending {
    let cmd = match Command::parse(args) {
        Ok(c) => c,
        Err(msg) => {
            let mut buf = Vec::new();
            resp::write_error(&mut buf, &msg);
            return Pending::Ready(buf, ReadyKind::CommandError);
        }
    };
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
            reqs.push(Request::Get(k));
            Pending::Get
        }
        Command::Set(key, value) => {
            reqs.push(Request::Upsert(key, value));
            Pending::Set
        }
        Command::Del(keys) => {
            let n = keys.len();
            reqs.extend(keys.into_iter().map(Request::Remove));
            Pending::Count {
                keys: n,
                write: true,
            }
        }
        Command::Exists(keys) => {
            let n = keys.len();
            reqs.extend(keys.into_iter().map(Request::Contains));
            Pending::Count {
                keys: n,
                write: false,
            }
        }
        Command::MGet(keys) => {
            let n = keys.len();
            reqs.extend(keys.into_iter().map(Request::Get));
            Pending::MGet(n)
        }
        Command::Scan { after, count } => {
            if !service.supports_scan() {
                let mut buf = Vec::new();
                resp::write_error(
                    &mut buf,
                    "ERR SCAN requires the ordered (skip-list) tier; this server fronts a hash tier",
                );
                return Pending::Ready(buf, ReadyKind::CommandError);
            }
            // No key, no partition: a scan rides the batch's own lane
            // and reads weakly consistently against in-flight writes.
            let page = Arc::new(Mutex::new(ScanPage::default()));
            let visitor = scan_page_visitor(Arc::clone(&page));
            reqs.push(Request::Scan(after, count, Box::new(visitor)));
            Pending::Scan { page, count }
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
/// matching counter. `-BUSY` is the backpressure policy speaking: the
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

/// The first refusal among a command's outcomes, if any.
fn first_err(outcomes: &[Outcome]) -> Option<Error> {
    outcomes.iter().find_map(|o| o.as_ref().err().copied())
}

/// Append one pending reply's wire form to `out`, given the outcomes
/// of its requests. Exactly one of ok / shed / rejected / errors is
/// recorded per command — the accounting identity (`commands == ok +
/// shed + rejected + errors`, DESIGN.md §9.9) is structural, not
/// reconciled.
fn render(
    metrics: &ServerMetrics,
    stop: &StopSignal,
    local_addr: SocketAddr,
    pending: Pending,
    outcomes: &[Outcome],
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
        Pending::Get => match &outcomes[0] {
            Ok(Response::Value(v)) => {
                match v {
                    Some(v) => resp::write_bulk(out, v),
                    None => resp::write_null(out),
                }
                metrics.record_ok();
            }
            Ok(_) => {
                metrics.record_error();
                resp::write_error(out, "ERR internal response mismatch");
            }
            Err(e) => write_busy(out, *e, metrics, close),
        },
        Pending::Set => match &outcomes[0] {
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
            Err(e) => write_busy(out, *e, metrics, close),
        },
        Pending::Count { keys, write } => {
            // Every sub-request has resolved: the reply below describes
            // what actually happened.
            let hits = outcomes
                .iter()
                .filter(|o| o.as_ref().is_ok_and(response_hit))
                .count();
            match first_err(outcomes) {
                None => {
                    resp::write_int(out, hits as i64);
                    metrics.record_ok();
                }
                Some(e) => {
                    // A busy DEL may have removed some keys on other
                    // lanes while one lane's cell was refused: say so,
                    // instead of implying the command had no effect.
                    let detail = (write && hits > 0)
                        .then(|| format!("; partial: {hits} of {keys} keys removed"));
                    write_busy_detail(out, e, detail.as_deref(), metrics, close);
                }
            }
        }
        Pending::MGet(keys) => {
            if let Some(e) = first_err(outcomes) {
                write_busy(out, e, metrics, close);
                return;
            }
            resp::write_array_header(out, keys);
            for o in outcomes {
                match o {
                    Ok(Response::Value(Some(v))) => resp::write_bulk(out, v),
                    _ => resp::write_null(out),
                }
            }
            metrics.record_ok();
        }
        Pending::Scan { page, count } => match &outcomes[0] {
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
            Err(e) => write_busy(out, *e, metrics, close),
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

/// The `INFO` payload: server counters, then service counters with the
/// service's drain size and ring capacity, in Redis' `key:value` line
/// style.
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
    let _ = writeln!(out, "inline:{}", svc.inline);
    let _ = writeln!(out, "completed:{}", svc.completed);
    let _ = writeln!(out, "rejected:{}", svc.rejected);
    let _ = writeln!(out, "shed:{}", svc.shed);
    let _ = writeln!(out, "e2c_p99_ns:{}", svc.enqueue_to_complete_ns.p99());
    let _ = writeln!(out, "batch_max:{}", service.batch_max());
    let _ = writeln!(out, "queue_capacity:{}", service.queue_capacity());
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
