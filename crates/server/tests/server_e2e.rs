//! Loopback end-to-end tests: a real TCP client (the same RESP codec,
//! used from the other side) against a running [`lf_server::Server`].
//!
//! Covers the full command surface in pipelined form, point-command and
//! SCAN replies byte for byte against reference renderings on every
//! tier, SCAN pagination on the ordered tier and its refusal on the
//! hash tier, backpressure surfacing as `-BUSY` with *exact* accounting
//! (every command sent resolves as exactly one of ok / shed / rejected,
//! client-side tallies equal server-side counters), protocol errors
//! closing the connection, and the gated SHUTDOWN path.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use lf_async::{AsyncHashMap, BackpressurePolicy, Service, ServiceBuilder};
use lf_core::{FrList, SkipList};
use lf_map::{BucketMap, DEFAULT_BUCKETS};
use lf_server::resp::{self, Reply};
use lf_server::{ByteBackend, Bytes, ServerBuilder};
use lf_shard::{ShardedMap, ShardedSkipList};

/// A minimal synchronous RESP client over one TCP connection.
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        Client {
            stream,
            buf: Vec::new(),
        }
    }

    /// Queue one command into the local write buffer (pipelining).
    fn push(&mut self, args: &[&[u8]]) {
        resp::write_command(&mut self.buf, args);
    }

    /// Flush every queued command in one write.
    fn flush(&mut self) {
        let buf = std::mem::take(&mut self.buf);
        self.stream.write_all(&buf).expect("write");
    }

    /// Read exactly `n` replies, in order.
    fn read_replies(&mut self, n: usize) -> Vec<Reply> {
        let mut replies = Vec::with_capacity(n);
        let mut acc: Vec<u8> = Vec::new();
        let mut chunk = [0u8; 8192];
        while replies.len() < n {
            match resp::parse_reply(&acc).expect("well-formed reply") {
                Some((reply, used)) => {
                    acc.drain(..used);
                    replies.push(reply);
                    continue;
                }
                None => {
                    let got = self.stream.read(&mut chunk).expect("read");
                    assert!(got > 0, "EOF after {} of {n} replies", replies.len());
                    acc.extend_from_slice(&chunk[..got]);
                }
            }
        }
        assert!(acc.is_empty(), "trailing bytes after {n} replies");
        replies
    }

    /// Flush the queued commands and read exactly `n` raw reply bytes.
    fn flush_and_read_raw(&mut self, n: usize) -> Vec<u8> {
        self.flush();
        let mut raw = vec![0u8; n];
        self.stream.read_exact(&mut raw).expect("read");
        raw
    }

    /// One command, one reply.
    fn roundtrip(&mut self, args: &[&[u8]]) -> Reply {
        self.push(args);
        self.flush();
        self.read_replies(1).remove(0)
    }
}

fn simple(s: &str) -> Reply {
    Reply::Simple(s.as_bytes().to_vec())
}

fn bulk(s: &[u8]) -> Reply {
    Reply::Bulk(Some(s.to_vec()))
}

#[test]
fn command_surface_on_ordered_tier() {
    let service = Arc::new(
        ServiceBuilder::new()
            .workers(2)
            .build(SkipList::<Bytes, Bytes>::new()),
    );
    let server = ServerBuilder::new().serve(Arc::clone(&service)).unwrap();
    let mut c = Client::connect(server.local_addr());

    assert_eq!(c.roundtrip(&[b"PING"]), simple("PONG"));
    assert_eq!(c.roundtrip(&[b"PING", b"hello"]), bulk(b"hello"));
    assert_eq!(c.roundtrip(&[b"SET", b"a", b"1"]), simple("OK"));
    assert_eq!(c.roundtrip(&[b"GET", b"a"]), bulk(b"1"));
    // SET is an upsert: same key, new value.
    assert_eq!(c.roundtrip(&[b"SET", b"a", b"2"]), simple("OK"));
    assert_eq!(c.roundtrip(&[b"GET", b"a"]), bulk(b"2"));
    assert_eq!(c.roundtrip(&[b"SET", b"b", b"3"]), simple("OK"));
    assert_eq!(
        c.roundtrip(&[b"EXISTS", b"a", b"b", b"nope"]),
        Reply::Int(2)
    );
    assert_eq!(
        c.roundtrip(&[b"MGET", b"a", b"nope", b"b"]),
        Reply::Array(vec![bulk(b"2"), Reply::Bulk(None), bulk(b"3")])
    );
    assert_eq!(c.roundtrip(&[b"DEL", b"a", b"nope"]), Reply::Int(1));
    assert_eq!(c.roundtrip(&[b"GET", b"a"]), Reply::Bulk(None));
    match c.roundtrip(&[b"INFO"]) {
        Reply::Bulk(Some(text)) => {
            let text = String::from_utf8(text).unwrap();
            assert!(text.contains("# Server"), "{text}");
            // The drain size the service was built with (the default).
            assert!(text.lines().any(|l| l == "batch_max:64"), "{text}");
        }
        other => panic!("INFO gave {other:?}"),
    }
    // Unknown commands and bad arity are command errors, not
    // connection errors.
    assert!(matches!(c.roundtrip(&[b"FLUSHALL"]), Reply::Error(_)));
    assert!(matches!(c.roundtrip(&[b"GET"]), Reply::Error(_)));
    assert_eq!(c.roundtrip(&[b"GET", b"b"]), bulk(b"3"));

    // QUIT: +OK, then the server closes.
    assert_eq!(c.roundtrip(&[b"QUIT"]), simple("OK"));
    let mut rest = Vec::new();
    assert_eq!(c.stream.read_to_end(&mut rest).unwrap(), 0);

    server.stop();
    service.shutdown();
}

#[test]
fn scan_paginates_the_ordered_keyspace() {
    let service = Arc::new(
        ServiceBuilder::new()
            .workers(2)
            .build(SkipList::<Bytes, Bytes>::new()),
    );
    let server = ServerBuilder::new().serve(Arc::clone(&service)).unwrap();
    let mut c = Client::connect(server.local_addr());

    let keys: Vec<String> = (0..10).map(|i| format!("k{i}")).collect();
    for k in &keys {
        assert_eq!(c.roundtrip(&[b"SET", k.as_bytes(), b"v"]), simple("OK"));
    }

    let mut cursor = b"0".to_vec();
    let mut seen: Vec<Vec<u8>> = Vec::new();
    let mut pages = 0;
    loop {
        let reply = c.roundtrip(&[b"SCAN", &cursor, b"COUNT", b"4"]);
        let Reply::Array(items) = reply else {
            panic!("SCAN gave {reply:?}");
        };
        assert_eq!(items.len(), 2);
        let Reply::Bulk(Some(next)) = &items[0] else {
            panic!("cursor not a bulk: {items:?}");
        };
        let Reply::Array(page) = &items[1] else {
            panic!("page not an array: {items:?}");
        };
        assert!(page.len() <= 4);
        for item in page {
            let Reply::Bulk(Some(k)) = item else {
                panic!("key not a bulk: {item:?}");
            };
            seen.push(k.clone());
        }
        pages += 1;
        assert!(pages <= 10, "cursor failed to terminate");
        if next == b"0" {
            break;
        }
        cursor = next.clone();
    }
    // Every key, exactly once, in key order (the ordered tier's whole
    // point on the wire).
    let want: Vec<Vec<u8>> = keys.iter().map(|k| k.as_bytes().to_vec()).collect();
    assert_eq!(seen, want);

    server.stop();
    service.shutdown();
}

/// What `SCAN <after> COUNT <count>` must answer over `keys` (sorted),
/// spelled out with the formatting machinery rather than the codec
/// under test.
fn reference_scan(keys: &[Vec<u8>], after: Option<&[u8]>, count: usize) -> Vec<u8> {
    let page: Vec<&Vec<u8>> = keys
        .iter()
        .filter(|k| after.is_none_or(|a| k.as_slice() > a))
        .take(count)
        .collect();
    let cursor: String = match page.last() {
        Some(last) if page.len() == count => last.iter().map(|b| format!("{b:02x}")).collect(),
        _ => "0".into(),
    };
    let mut out =
        format!("*2\r\n${}\r\n{cursor}\r\n*{}\r\n", cursor.len(), page.len()).into_bytes();
    for k in page {
        out.extend_from_slice(format!("${}\r\n", k.len()).as_bytes());
        out.extend_from_slice(k);
        out.extend_from_slice(b"\r\n");
    }
    out
}

/// Send `SCAN <hex(after)|0> COUNT <count>` and hold the raw reply to
/// the reference.
fn assert_scan_bytes(c: &mut Client, keys: &[Vec<u8>], after: Option<&[u8]>, count: usize) {
    let want = reference_scan(keys, after, count);
    let cursor = after.map_or("0".to_string(), resp::hex_encode);
    c.push(&[
        b"SCAN",
        cursor.as_bytes(),
        b"COUNT",
        count.to_string().as_bytes(),
    ]);
    let got = c.flush_and_read_raw(want.len());
    assert_eq!(
        String::from_utf8_lossy(&got),
        String::from_utf8_lossy(&want),
        "SCAN {cursor} COUNT {count}"
    );
}

/// SCAN replies are byte-identical to the reference for page sizes
/// below, at and beyond the keyspace, from every kind of cursor, on an
/// empty map, and pipelined behind a SET on the same lane.
fn scan_bytes_match_reference<B: lf_server::ByteBackend>(service: Arc<lf_async::Service<B>>) {
    let server = ServerBuilder::new().serve(Arc::clone(&service)).unwrap();
    let mut c = Client::connect(server.local_addr());

    // An empty map: an empty page and the terminal cursor.
    assert_scan_bytes(&mut c, &[], None, 4);
    assert_scan_bytes(&mut c, &[], Some(b"anything"), 4);

    // Keys that stress the encoders: empty, binary, ten bytes and up
    // (two-digit bulk lengths), plus a run of ordinary ones.
    let mut keys: Vec<Vec<u8>> = vec![vec![], vec![0, 255, 13, 10], b"0123456789ab".to_vec()];
    keys.extend((0..9).map(|i| format!("k{i}").into_bytes()));
    keys.sort();
    for k in &keys {
        assert_eq!(c.roundtrip(&[b"SET", k, b"some value"]), simple("OK"));
    }
    for count in [1usize, 4, keys.len(), 100, 4096] {
        assert_scan_bytes(&mut c, &keys, None, count);
        for after in &keys {
            assert_scan_bytes(&mut c, &keys, Some(after), count);
        }
        // Cursors that are no key: between two keys, past the last.
        assert_scan_bytes(&mut c, &keys, Some(b"k4x"), count);
        assert_scan_bytes(&mut c, &keys, Some(b"zzz"), count);
    }

    // One lane serves both commands in pipeline order, so the page
    // must already hold the key SET just ahead of it.
    c.push(&[b"SET", b"k9a", b"v"]);
    keys.push(b"k9a".to_vec());
    keys.sort();
    let want = [b"+OK\r\n".to_vec(), reference_scan(&keys, Some(b"k8"), 4)].concat();
    c.push(&[b"SCAN", resp::hex_encode(b"k8").as_bytes(), b"COUNT", b"4"]);
    assert_eq!(c.flush_and_read_raw(want.len()), want);

    server.stop();
    service.shutdown();
}

#[test]
fn scan_replies_are_byte_identical_to_a_reference_rendering() {
    scan_bytes_match_reference(Arc::new(
        ServiceBuilder::new()
            .workers(1)
            .build(SkipList::<Bytes, Bytes>::new()),
    ));
    scan_bytes_match_reference(Arc::new(
        ServiceBuilder::new()
            .workers(1)
            .build(ShardedSkipList::<Bytes, Bytes>::new(8)),
    ));
}

/// A sequential map answering point commands, its replies spelled out
/// with `format!` rather than the codec under test: what a pipeline
/// must read back byte for byte, whatever tier and lane count serve it.
#[derive(Default)]
struct PointModel(BTreeMap<Bytes, Bytes>);

impl PointModel {
    /// Run one command; returns its reply and whether the connection
    /// closes after it.
    fn apply(&mut self, args: &[Bytes]) -> (Vec<u8>, bool) {
        fn bulk(v: Option<&Bytes>) -> Vec<u8> {
            match v {
                Some(v) => [format!("${}\r\n", v.len()).as_bytes(), v, b"\r\n"].concat(),
                None => b"$-1\r\n".to_vec(),
            }
        }
        let int = |n: usize| format!(":{n}\r\n").into_bytes();
        let (name, keys) = args.split_first().expect("a command has a name");
        let reply = match name.as_slice() {
            b"GET" => bulk(self.0.get(&keys[0])),
            b"SET" => {
                self.0.insert(keys[0].clone(), keys[1].clone());
                b"+OK\r\n".to_vec()
            }
            b"DEL" => int(keys.iter().filter(|k| self.0.remove(*k).is_some()).count()),
            b"EXISTS" => int(keys.iter().filter(|k| self.0.contains_key(*k)).count()),
            b"MGET" => {
                let mut out = format!("*{}\r\n", keys.len()).into_bytes();
                for k in keys {
                    out.extend(bulk(self.0.get(k)));
                }
                out
            }
            b"PING" => b"+PONG\r\n".to_vec(),
            b"QUIT" => return (b"+OK\r\n".to_vec(), true),
            other => format!(
                "-ERR unknown command '{}'\r\n",
                String::from_utf8_lossy(other)
            )
            .into_bytes(),
        };
        (reply, false)
    }
}

/// The keys point pipelines draw from: few enough that GETs both hit
/// and miss and multi-key commands repeat keys.
const POINT_KEYS: usize = 6;

/// A xorshift generator: the same pipelines on every run.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }

    fn key(&mut self) -> Bytes {
        format!("pk{}", self.below(POINT_KEYS as u64)).into_bytes()
    }
}

/// `len` random point commands: GET, SET, DEL / EXISTS / MGET over
/// 1–4 keys, and PING.
fn point_pipeline(rng: &mut Rng, len: usize) -> Vec<Vec<Bytes>> {
    (0..len)
        .map(|_| {
            let kind = rng.below(8);
            let name: &[u8] = match kind {
                0 | 1 => b"GET",
                2 | 3 => b"SET",
                4 => b"DEL",
                5 => b"EXISTS",
                6 => b"MGET",
                _ => return vec![b"PING".to_vec()],
            };
            let mut cmd = vec![name.to_vec(), rng.key()];
            match kind {
                2 | 3 => cmd.push(format!("v{}", rng.below(1000)).into_bytes()),
                4..=6 => {
                    for _ in 0..rng.below(4) {
                        cmd.push(rng.key());
                    }
                }
                _ => {}
            }
            cmd
        })
        .collect()
}

fn push_all(c: &mut Client, cmds: &[Vec<Bytes>]) {
    for cmd in cmds {
        c.push(&cmd.iter().map(Vec::as_slice).collect::<Vec<_>>());
    }
}

/// Pipelined point commands — with an unknown command mid-pipeline,
/// and finally a QUIT mid-pipeline — read back exactly what the
/// sequential model answers; nothing pipelined behind the QUIT runs.
fn point_bytes_match_reference<B: ByteBackend>(service: Arc<Service<B>>) {
    let server = ServerBuilder::new().serve(Arc::clone(&service)).unwrap();
    let mut model = PointModel::default();
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    let mut c = Client::connect(server.local_addr());
    for round in 0..16 {
        let mut cmds = point_pipeline(&mut rng, 40);
        cmds.insert(20, vec![b"FLUSHALL".to_vec()]);
        let want: Vec<u8> = cmds.iter().flat_map(|cmd| model.apply(cmd).0).collect();
        push_all(&mut c, &cmds);
        assert_eq!(
            String::from_utf8_lossy(&c.flush_and_read_raw(want.len())),
            String::from_utf8_lossy(&want),
            "round {round}"
        );
    }

    let mut cmds = point_pipeline(&mut rng, 20);
    cmds.push(vec![b"QUIT".to_vec()]);
    cmds.push(vec![b"SET".to_vec(), b"after-quit".to_vec(), b"v".to_vec()]);
    cmds.extend(point_pipeline(&mut rng, 20));
    let mut want = Vec::new();
    for cmd in &cmds {
        let (reply, close) = model.apply(cmd);
        want.extend(reply);
        if close {
            break;
        }
    }
    push_all(&mut c, &cmds);
    c.flush();
    let mut got = Vec::new();
    c.stream.read_to_end(&mut got).unwrap();
    assert_eq!(
        String::from_utf8_lossy(&got),
        String::from_utf8_lossy(&want)
    );

    let mut c = Client::connect(server.local_addr());
    let mut probe: Vec<Vec<Bytes>> = (0..POINT_KEYS)
        .map(|i| vec![b"GET".to_vec(), format!("pk{i}").into_bytes()])
        .collect();
    probe.push(vec![b"GET".to_vec(), b"after-quit".to_vec()]);
    let want: Vec<u8> = probe.iter().flat_map(|cmd| model.apply(cmd).0).collect();
    push_all(&mut c, &probe);
    assert_eq!(c.flush_and_read_raw(want.len()), want, "state after QUIT");

    server.stop();
    service.shutdown();
}

#[test]
fn point_replies_are_byte_identical_to_a_sequential_model() {
    for workers in [1, 4] {
        point_bytes_match_reference(Arc::new(
            ServiceBuilder::new()
                .workers(workers)
                .build(FrList::<Bytes, Bytes>::new()),
        ));
        point_bytes_match_reference(Arc::new(
            ServiceBuilder::new()
                .workers(workers)
                .build(SkipList::<Bytes, Bytes>::new()),
        ));
        point_bytes_match_reference(Arc::new(
            ServiceBuilder::new()
                .workers(workers)
                .build(ShardedSkipList::<Bytes, Bytes>::new(8)),
        ));
        point_bytes_match_reference(Arc::new(
            ServiceBuilder::new()
                .workers(workers)
                .build(BucketMap::<Bytes, Bytes>::new(DEFAULT_BUCKETS)),
        ));
        point_bytes_match_reference(Arc::new(
            ServiceBuilder::new()
                .workers(workers)
                .build(ShardedMap::<Bytes, Bytes>::new(8, 64)),
        ));
    }
}

#[test]
fn scan_refused_on_hash_tier() {
    let service = Arc::new(
        ServiceBuilder::new()
            .workers(2)
            .build(BucketMap::<Bytes, Bytes>::new(DEFAULT_BUCKETS)),
    );
    let server = ServerBuilder::new().serve(Arc::clone(&service)).unwrap();
    let mut c = Client::connect(server.local_addr());

    assert_eq!(c.roundtrip(&[b"SET", b"a", b"1"]), simple("OK"));
    match c.roundtrip(&[b"SCAN", b"0"]) {
        Reply::Error(msg) => {
            let msg = String::from_utf8(msg).unwrap();
            assert!(msg.contains("ordered"), "{msg}");
        }
        other => panic!("SCAN on hash tier gave {other:?}"),
    }
    // The connection survives a refused command.
    assert_eq!(c.roundtrip(&[b"GET", b"a"]), bulk(b"1"));

    server.stop();
    service.shutdown();
}

#[test]
fn pipelined_replies_arrive_in_order() {
    let service = Arc::new(
        ServiceBuilder::new()
            .workers(2)
            .build(BucketMap::<Bytes, Bytes>::new(DEFAULT_BUCKETS)),
    );
    let server = ServerBuilder::new().serve(Arc::clone(&service)).unwrap();
    let mut c = Client::connect(server.local_addr());

    const N: usize = 100;
    for i in 0..N {
        let k = format!("key{i:03}");
        let v = format!("val{i:03}");
        c.push(&[b"SET", k.as_bytes(), v.as_bytes()]);
    }
    for i in 0..N {
        let k = format!("key{i:03}");
        c.push(&[b"GET", k.as_bytes()]);
    }
    c.flush();
    let replies = c.read_replies(2 * N);
    for (i, reply) in replies[..N].iter().enumerate() {
        assert_eq!(*reply, simple("OK"), "SET #{i}");
    }
    for (i, reply) in replies[N..].iter().enumerate() {
        let want = format!("val{i:03}");
        assert_eq!(*reply, bulk(want.as_bytes()), "GET #{i}");
    }

    server.stop();
    service.shutdown();
}

/// Connections driving one deliberately tiny ring at once. A pipeline
/// takes one ring slot, so a 2-slot ring overflows only when several
/// pipelines are in flight together.
const CONNS: usize = 6;
/// Pipelined bursts each connection sends at least, and at most while
/// waiting for the ring to refuse something.
const MIN_ROUNDS: usize = 8;
const MAX_ROUNDS: usize = 4_000;

/// Run `f(connection index, refused)` on `CONNS` threads at once, each
/// with its own connection to `addr`, and collect their results.
/// `refused` is shared: a thread raises it when it sees a busy reply,
/// so the others know the ring has overflowed.
fn concurrently<T: Send>(
    addr: SocketAddr,
    f: impl Fn(usize, &mut Client, &AtomicBool) -> T + Sync,
) -> Vec<T> {
    let refused = AtomicBool::new(false);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..CONNS)
            .map(|i| {
                let (f, refused) = (&f, &refused);
                s.spawn(move || f(i, &mut Client::connect(addr), refused))
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    })
}

/// Whether a connection that has sent `round` bursts should send more:
/// at least `MIN_ROUNDS`, then until some connection saw a refusal.
fn keep_going(round: usize, refused: &AtomicBool) -> bool {
    round < MIN_ROUNDS || (round < MAX_ROUNDS && !refused.load(Ordering::Relaxed))
}

/// Client-side tally of one or more connections' SETs.
#[derive(Default, Debug, PartialEq)]
struct Tally {
    sent: u64,
    ok: u64,
    shed: u64,
    rejected: u64,
}

/// Send 64-deep pipelines of distinct-key SETs from `CONNS` concurrent
/// connections until the ring has refused something, and return the
/// summed client-side tally.
fn hammer(addr: SocketAddr) -> Tally {
    let per_conn = concurrently(addr, |conn, c, refused| {
        let mut t = Tally::default();
        let mut round = 0;
        while keep_going(round, refused) {
            for i in 0..64 {
                let k = format!("key-{conn}-{round}-{i}");
                c.push(&[b"SET", k.as_bytes(), b"v"]);
            }
            c.flush();
            for reply in c.read_replies(64) {
                match reply {
                    Reply::Simple(s) if s == b"OK" => t.ok += 1,
                    Reply::Error(msg) if msg == b"BUSY shed" => t.shed += 1,
                    Reply::Error(msg) if msg == b"BUSY rejected" => t.rejected += 1,
                    other => panic!("unexpected reply {other:?}"),
                }
            }
            t.sent += 64;
            if t.shed + t.rejected > 0 {
                refused.store(true, Ordering::Relaxed);
            }
            round += 1;
        }
        t
    });
    per_conn.into_iter().fold(Tally::default(), |a, t| Tally {
        sent: a.sent + t.sent,
        ok: a.ok + t.ok,
        shed: a.shed + t.shed,
        rejected: a.rejected + t.rejected,
    })
}

#[test]
fn reject_policy_surfaces_busy_with_exact_accounting() {
    let service = Arc::new(
        ServiceBuilder::new()
            .workers(1)
            .queue_capacity(2)
            .batch_max(1)
            .policy(BackpressurePolicy::Reject)
            .build(BucketMap::<Bytes, Bytes>::new(DEFAULT_BUCKETS)),
    );
    let server = ServerBuilder::new().serve(Arc::clone(&service)).unwrap();

    let t = hammer(server.local_addr());
    assert_eq!(
        t.ok + t.shed + t.rejected,
        t.sent,
        "a command went unaccounted"
    );
    assert_eq!(t.shed, 0, "Reject policy must never shed");
    assert!(
        t.rejected > 0,
        "{CONNS} connections' pipelines into a 2-deep ring never rejected"
    );

    // Client-side tallies equal server-side counters: overload is
    // *accounted*, not inferred.
    let snap = server.metrics().snapshot();
    assert_eq!(snap.commands, t.sent);
    assert_eq!(
        (snap.ok, snap.shed, snap.rejected),
        (t.ok, t.shed, t.rejected)
    );
    assert!(snap.pipeline_depth.count() > 0);

    server.stop();
    service.shutdown();
    // The service counts requests, whole refused cells included.
    let svc = service.metrics();
    assert_eq!((svc.enqueued, svc.rejected), (t.ok, t.rejected));
}

#[test]
fn shed_policy_surfaces_busy_with_exact_accounting() {
    let service = Arc::new(
        ServiceBuilder::new()
            .workers(1)
            .queue_capacity(2)
            .batch_max(1)
            .policy(BackpressurePolicy::Shed)
            .build(BucketMap::<Bytes, Bytes>::new(DEFAULT_BUCKETS)),
    );
    let server = ServerBuilder::new().serve(Arc::clone(&service)).unwrap();

    let t = hammer(server.local_addr());
    assert_eq!(
        t.ok + t.shed + t.rejected,
        t.sent,
        "a command went unaccounted"
    );
    assert_eq!(t.rejected, 0, "Shed policy must never reject");
    assert!(
        t.shed > 0,
        "{CONNS} connections' pipelines into a 2-deep ring never shed"
    );

    let snap = server.metrics().snapshot();
    assert_eq!(snap.commands, t.sent);
    assert_eq!(
        (snap.ok, snap.shed, snap.rejected),
        (t.ok, t.shed, t.rejected)
    );

    server.stop();
    service.shutdown();
    let svc = service.metrics();
    assert_eq!(
        (svc.enqueued, svc.completed, svc.shed),
        (t.sent, t.ok, t.shed)
    );
}

/// Read-your-writes through one pipeline: interleaved `SET k i; GET k`
/// pairs on one hot key, where every GET must observe exactly the SET
/// dispatched right before it. With several workers this only holds if
/// every request on the key shares one lane *and* runs in parse order —
/// the two halves of the pipelining ordering contract — whether the
/// lane comes from the backend's affinity (hash tiers) or from the
/// batch keeping a whole pipeline on one lane (the skip list).
fn assert_same_key_pipeline_ordered<B: ByteBackend>(service: Arc<Service<B>>, rounds: usize) {
    let server = ServerBuilder::new().serve(Arc::clone(&service)).unwrap();
    let mut c = Client::connect(server.local_addr());

    for i in 0..rounds {
        let v = format!("v{i:04}");
        c.push(&[b"SET", b"ctr", v.as_bytes()]);
        c.push(&[b"GET", b"ctr"]);
    }
    c.flush();
    let replies = c.read_replies(2 * rounds);
    for (i, pair) in replies.chunks(2).enumerate() {
        assert_eq!(pair[0], simple("OK"), "SET #{i}");
        let want = format!("v{i:04}");
        assert_eq!(pair[1], bulk(want.as_bytes()), "GET #{i} read a stale SET");
    }

    server.stop();
    service.shutdown();
}

#[test]
fn pipelined_same_key_ops_read_their_writes() {
    // Plenty of workers, roomy rings: catches round-robin lane
    // placement splitting a key's ops across lanes.
    let service = Arc::new(
        ServiceBuilder::new()
            .workers(4)
            .build(SkipList::<Bytes, Bytes>::new()),
    );
    assert_same_key_pipeline_ordered(service, 200);
}

#[test]
fn pipelined_same_key_ops_read_their_writes_under_block() {
    // A 2-deep ring with Block policy forces submissions to bounce off
    // full rings constantly: catches a bounced op being re-submitted
    // *after* younger pipelined ops already enqueued.
    let service = Arc::new(
        ServiceBuilder::new()
            .workers(2)
            .queue_capacity(2)
            .batch_max(1)
            .policy(BackpressurePolicy::Block)
            .build(SkipList::<Bytes, Bytes>::new()),
    );
    assert_same_key_pipeline_ordered(service, 400);
}

#[test]
fn pipelined_same_key_ops_read_their_writes_on_hash_tiers() {
    assert_same_key_pipeline_ordered(
        Arc::new(
            ServiceBuilder::new()
                .workers(4)
                .build(BucketMap::<Bytes, Bytes>::new(DEFAULT_BUCKETS)),
        ),
        200,
    );
    assert_same_key_pipeline_ordered(
        Arc::new(
            ServiceBuilder::new()
                .workers(4)
                .build(ShardedMap::<Bytes, Bytes>::new(8, 64)),
        ),
        200,
    );
}

#[test]
fn busy_multi_key_commands_keep_exact_accounting() {
    let service = Arc::new(
        ServiceBuilder::new()
            .workers(1)
            .queue_capacity(2)
            .batch_max(1)
            .policy(BackpressurePolicy::Reject)
            .build(BucketMap::<Bytes, Bytes>::new(DEFAULT_BUCKETS)),
    );
    let server = ServerBuilder::new().serve(Arc::clone(&service)).unwrap();

    // Deep pipelines of multi-key commands from several connections
    // into a 2-deep ring: some commands go busy, every one gets exactly
    // one reply, and every connection survives.
    let per_conn = concurrently(server.local_addr(), |_, c, refused| {
        for i in 0..8 {
            let k = format!("mk{i}");
            assert!(matches!(
                c.roundtrip(&[b"SET", k.as_bytes(), b"v"]),
                Reply::Simple(_) | Reply::Error(_)
            ));
        }
        let (mut rounds, mut busy) = (0, 0u64);
        while keep_going(rounds, refused) {
            c.push(&[b"DEL", b"mk0", b"mk1", b"mk2", b"mk3"]);
            c.push(&[b"EXISTS", b"mk4", b"mk5", b"mk6", b"mk7"]);
            c.push(&[b"MGET", b"mk4", b"mk5", b"mk6", b"mk7"]);
            c.push(&[b"SET", b"mk0", b"v"]);
            c.flush();
            for reply in c.read_replies(4) {
                if let Reply::Error(msg) = reply {
                    // Prefix, not equality: a busy DEL that still
                    // removed some keys discloses it with a `; partial:`
                    // suffix.
                    assert!(msg.starts_with(b"BUSY rejected"), "{msg:?}");
                    busy += 1;
                    refused.store(true, Ordering::Relaxed);
                }
            }
            rounds += 1;
        }
        // The connection is still fully usable after busy multi-key
        // replies (no sub-request left a stale reply queued).
        assert_eq!(c.roundtrip(&[b"PING"]), simple("PONG"));
        (rounds as u64, busy)
    });
    let rounds: u64 = per_conn.iter().map(|&(r, _)| r).sum();
    let busy: u64 = per_conn.iter().map(|&(_, b)| b).sum();
    assert!(busy > 0, "2-deep ring never refused a 13-request pipeline");

    // DESIGN.md §9.9: every reply bumps exactly one outcome class.
    let snap = server.metrics().snapshot();
    assert_eq!(
        snap.commands,
        snap.ok + snap.shed + snap.rejected + snap.errors,
        "accounting identity broken"
    );
    assert_eq!(snap.commands, (8 + 1) * CONNS as u64 + 4 * rounds);
    assert_eq!(snap.errors, 0);

    server.stop();
    service.shutdown();
}

/// The first `n` of the keys `k0, k1, …` that `service` routes to
/// `lane`.
fn keys_on_lane(service: &AsyncHashMap<Bytes, Bytes>, lane: usize, n: usize) -> Vec<Bytes> {
    (0..)
        .map(|i| format!("k{i}").into_bytes())
        .filter(|k| service.backend().bucket_of(k) % service.lane_count() == lane)
        .take(n)
        .collect()
}

/// A DEL whose keys span two lanes, one of them saturated: the lane
/// that is not full removes its keys, the full one refuses its cell,
/// and the reply discloses exactly what happened.
#[test]
fn del_spanning_lanes_discloses_a_refused_lane() {
    let service = Arc::new(
        ServiceBuilder::new()
            .workers(2)
            .queue_capacity(2)
            .batch_max(1)
            .policy(BackpressurePolicy::Reject)
            .build(BucketMap::<Bytes, Bytes>::new(DEFAULT_BUCKETS)),
    );
    let server = ServerBuilder::new().serve(Arc::clone(&service)).unwrap();
    let hot = keys_on_lane(&service, 0, 64);
    let calm = keys_on_lane(&service, 1, 2);

    let saturated = AtomicBool::new(false);
    let found = std::thread::scope(|s| {
        // Every other connection hammers lane 0 only, so its ring is
        // often full; lane 1 serves nobody but the probe below.
        let hammers: Vec<_> = (0..CONNS)
            .map(|_| {
                let (hot, saturated) = (&hot, &saturated);
                let mut c = Client::connect(server.local_addr());
                s.spawn(move || {
                    while !saturated.load(Ordering::Relaxed) {
                        for k in hot {
                            c.push(&[b"SET", k, b"v"]);
                        }
                        c.flush();
                        for reply in c.read_replies(hot.len()) {
                            match reply {
                                Reply::Simple(s) if s == b"OK" => {}
                                Reply::Error(msg) if msg == b"BUSY rejected" => {}
                                other => panic!("unexpected reply {other:?}"),
                            }
                        }
                    }
                })
            })
            .collect();
        // The probe: set one hot and two calm keys, then delete all
        // three in the same pipeline.
        let mut c = Client::connect(server.local_addr());
        let mut found = None;
        for _ in 0..MAX_ROUNDS * 5 {
            for k in [&hot[0], &calm[0], &calm[1]] {
                c.push(&[b"SET", k, b"v"]);
            }
            c.push(&[b"DEL", &hot[0], &calm[0], &calm[1]]);
            c.flush();
            let replies = c.read_replies(4);
            match &replies[3] {
                Reply::Int(3) => {}
                Reply::Error(msg) => {
                    found = Some(String::from_utf8(msg.clone()).unwrap());
                    break;
                }
                other => panic!("DEL answered {other:?}"),
            }
        }
        saturated.store(true, Ordering::Relaxed);
        for h in hammers {
            h.join().unwrap();
        }
        found
    });
    // The calm lane ran its SETs and both its removals; the hot lane's
    // cell — SET and DEL of the hot key — was refused whole.
    assert_eq!(
        found.as_deref(),
        Some("BUSY rejected; partial: 2 of 3 keys removed"),
        "the hot lane never refused the probe"
    );

    let snap = server.metrics().snapshot();
    assert_eq!(
        snap.commands,
        snap.ok + snap.shed + snap.rejected + snap.errors,
        "accounting identity broken"
    );
    assert_eq!(snap.errors, 0);

    server.stop();
    service.shutdown();
}

/// Keys a connection sets and then deletes inline before it idles.
const IDLE_DELS: usize = 2_000;

/// A connection whose pipelines ran inline retired every DEL's tower
/// through its own handle, whose garbage only it can free. Idling past
/// its read timeout must free it while the connection stays open.
#[test]
fn idle_connection_frees_what_it_retired_inline() {
    use lf_reclaim::{Ebr, Reclaim};
    let service = Arc::new(
        ServiceBuilder::new()
            .workers(1)
            .build(SkipList::<Bytes, Bytes>::new()),
    );
    let server = ServerBuilder::new()
        .read_timeout(Duration::from_millis(5))
        .serve(Arc::clone(&service))
        .unwrap();
    let mut c = Client::connect(server.local_addr());
    const BURST: usize = 100;
    for phase in [b"SET".as_slice(), b"DEL".as_slice()] {
        for burst in (0..IDLE_DELS).step_by(BURST) {
            for i in burst..burst + BURST {
                let k = format!("idle-{i}");
                match phase {
                    b"SET" => c.push(&[phase, k.as_bytes(), b"v"]),
                    _ => c.push(&[phase, k.as_bytes()]),
                }
            }
            c.flush();
            let want = if phase == b"SET" {
                simple("OK")
            } else {
                Reply::Int(1)
            };
            assert!(c.read_replies(BURST).iter().all(|r| *r == want));
        }
    }
    // One client and nothing queued: every pipeline ran inline.
    let svc = service.metrics();
    assert_eq!(svc.inline, svc.enqueued);
    assert_eq!(svc.inline, 2 * IDLE_DELS as u64);

    let gauge = Ebr::gauge(service.backend().domain());
    assert!(gauge.snapshot().retired >= IDLE_DELS as u64);
    // This side only advances the epoch; what the idle connection
    // retired is its own to free.
    let advance = service.backend().handle();
    let mut left = gauge.unreclaimed();
    for _ in 0..1_000 {
        if left == 0 {
            break;
        }
        advance.flush_reclamation();
        std::thread::sleep(Duration::from_millis(2));
        left = gauge.unreclaimed();
    }
    // Nothing else retires here, so the drain must be complete.
    assert_eq!(
        left, 0,
        "retirements unfreed after the connection idled — it never flushed its handle"
    );
    assert_eq!(c.roundtrip(&[b"PING"]), simple("PONG"));
    drop(c);
    server.stop();
    service.shutdown();
}

#[test]
fn protocol_error_closes_the_connection() {
    let service = Arc::new(
        ServiceBuilder::new()
            .workers(1)
            .build(BucketMap::<Bytes, Bytes>::new(DEFAULT_BUCKETS)),
    );
    let server = ServerBuilder::new().serve(Arc::clone(&service)).unwrap();
    let mut c = Client::connect(server.local_addr());

    // A valid command pipelined ahead of garbage still gets its reply;
    // then the error reply arrives and the server closes.
    c.push(&[b"PING"]);
    c.buf.extend_from_slice(b"*abc\r\n");
    c.flush();
    let replies = c.read_replies(2);
    assert_eq!(replies[0], simple("PONG"));
    match &replies[1] {
        Reply::Error(msg) => {
            let msg = String::from_utf8(msg.clone()).unwrap();
            assert!(msg.starts_with("ERR"), "{msg}");
        }
        other => panic!("expected protocol error, got {other:?}"),
    }
    let mut rest = Vec::new();
    assert_eq!(
        c.stream.read_to_end(&mut rest).unwrap(),
        0,
        "conn not closed"
    );
    assert_eq!(server.metrics().snapshot().protocol_errors, 1);

    server.stop();
    service.shutdown();
}

#[test]
fn shutdown_is_gated_and_stops_the_server_when_allowed() {
    let service = Arc::new(
        ServiceBuilder::new()
            .workers(1)
            .build(BucketMap::<Bytes, Bytes>::new(DEFAULT_BUCKETS)),
    );

    // Default: SHUTDOWN refused, server keeps running.
    let server = ServerBuilder::new().serve(Arc::clone(&service)).unwrap();
    let mut c = Client::connect(server.local_addr());
    assert!(matches!(c.roundtrip(&[b"SHUTDOWN"]), Reply::Error(_)));
    assert_eq!(c.roundtrip(&[b"PING"]), simple("PONG"));
    assert!(!server.stop_requested());
    drop(c);
    server.stop();

    // Opted in: SHUTDOWN acks, then the whole server stops.
    let server = ServerBuilder::new()
        .allow_shutdown(true)
        .serve(Arc::clone(&service))
        .unwrap();
    let mut c = Client::connect(server.local_addr());
    assert_eq!(c.roundtrip(&[b"SHUTDOWN"]), simple("OK"));
    server.wait();
    assert!(server.stop_requested());
    server.stop();
    service.shutdown();
}
