//! Pin-hygiene drop-audit: no epoch guard may live across a connection
//! thread's blocking I/O.
//!
//! The lever is EBR's liveness contract: one thread parked *while
//! pinned* freezes the epoch, so nothing retired after its pin can ever
//! be freed. Connection threads spend almost all their time parked in
//! blocking `read` calls — if the wire layer leaked a guard into that
//! state (the classic held-across-await bug this workspace's lint hunts
//! in async code), churn through the server would drive the
//! unreclaimed gauge up monotonically toward the total retire count.
//!
//! So: park several connections in `read` (one fully idle, two that
//! have been through the dispatch/render path first), churn thousands
//! of SET+DEL pairs through another connection, then check the domain
//! gauge drains back to near zero *while those connections are still
//! parked*. A pinned connection thread caps frees at (almost) nothing
//! and the bound fails by an order of magnitude.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use lf_async::ServiceBuilder;
use lf_core::{MapHandle, SkipList};
use lf_reclaim::{Ebr, Reclaim};
use lf_server::resp::{self, Reply};
use lf_server::{Bytes, ServerBuilder};

/// Keys churned (each SET+DEL retires at least one tower).
const CHURN: usize = 4000;
/// Where the gauge must drain back to with conns still parked.
const DRAIN_TARGET: u64 = 256;
/// Hard failure bound — a pinned conn thread leaves ~CHURN unreclaimed.
const DRAIN_BOUND: u64 = (CHURN / 2) as u64;

fn roundtrip(stream: &mut TcpStream, args: &[&[u8]]) -> Reply {
    let mut buf = Vec::new();
    resp::write_command(&mut buf, args);
    stream.write_all(&buf).expect("write");
    let mut acc = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some((reply, used)) = resp::parse_reply(&acc).expect("reply") {
            assert_eq!(used, acc.len());
            return reply;
        }
        let n = std::io::Read::read(stream, &mut chunk).expect("read");
        assert!(n > 0, "unexpected EOF");
        acc.extend_from_slice(&chunk[..n]);
    }
}

#[test]
fn churn_reclaims_while_connections_sit_in_blocking_reads() {
    let service = Arc::new(
        ServiceBuilder::new()
            .workers(2)
            .build(SkipList::<Bytes, Bytes>::new()),
    );
    let server = ServerBuilder::new()
        .read_timeout(Duration::from_millis(5))
        .serve(Arc::clone(&service))
        .unwrap();
    let addr = server.local_addr();

    // Parked connections — alive for the whole test. The first never
    // sends a byte; the other two run a command first so their threads
    // have been through dispatch/render (where a guard would have been
    // acquired if the wire layer ever took one) before parking in read.
    let idle = TcpStream::connect(addr).unwrap();
    let mut warm_get = TcpStream::connect(addr).unwrap();
    assert_eq!(
        roundtrip(&mut warm_get, &[b"GET", b"missing"]),
        Reply::Bulk(None)
    );
    let mut warm_set = TcpStream::connect(addr).unwrap();
    assert_eq!(
        roundtrip(&mut warm_set, &[b"SET", b"warm", b"v"]),
        Reply::Simple(b"OK".to_vec())
    );

    // Churn: SET+DEL per key, pipelined in bursts, each retiring at
    // least one tower on a lane worker.
    let mut churn = TcpStream::connect(addr).unwrap();
    churn
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    const BURST: usize = 50;
    let mut acc = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    // SET burst first, replies read, *then* the DEL burst: pipelined
    // ops fan out round-robin across lanes, so a SET+DEL pair in one
    // pipeline can execute in either order — phasing guarantees every
    // DEL finds its key and retires a tower.
    for burst in 0..(CHURN / BURST) {
        for phase in [b"SET".as_slice(), b"DEL".as_slice()] {
            let mut buf = Vec::new();
            for i in 0..BURST {
                let k = format!("churn-{}-{}", burst, i);
                if phase == b"SET" {
                    resp::write_command(&mut buf, &[phase, k.as_bytes(), b"v"]);
                } else {
                    resp::write_command(&mut buf, &[phase, k.as_bytes()]);
                }
            }
            churn.write_all(&buf).expect("write churn");
            let mut replies = 0;
            while replies < BURST {
                match resp::parse_reply(&acc).expect("reply") {
                    Some((reply, used)) => {
                        acc.drain(..used);
                        let hit = match (&reply, phase) {
                            (Reply::Simple(s), b"SET") => s == b"OK",
                            (Reply::Int(n), b"DEL") => *n == 1,
                            _ => false,
                        };
                        assert!(
                            hit,
                            "churn {} got {reply:?}",
                            String::from_utf8_lossy(phase)
                        );
                        replies += 1;
                    }
                    None => {
                        let n = std::io::Read::read(&mut churn, &mut chunk).expect("read churn");
                        assert!(n > 0, "churn conn closed early");
                        acc.extend_from_slice(&chunk[..n]);
                    }
                }
            }
        }
    }

    let gauge = Ebr::gauge(service.backend().domain());
    let after_churn = gauge.snapshot();
    assert!(
        after_churn.retired >= CHURN as u64,
        "churn retired only {} towers",
        after_churn.retired
    );

    // Drain with the parked connections still open: trailing ops keep
    // the lane workers cycling pin → unpin → collect over their own
    // retirement bags, and a test-side flush advances the epoch and
    // sweeps orphans. Both stall forever if any parked thread is
    // pinned.
    let drain_handle = service.backend().handle();
    let mut last = gauge.unreclaimed();
    for round in 0..2000 {
        if last <= DRAIN_TARGET {
            break;
        }
        let k = format!("drain-{round}");
        assert_eq!(
            roundtrip(&mut churn, &[b"SET", k.as_bytes(), b"v"]),
            Reply::Simple(b"OK".to_vec())
        );
        assert_eq!(
            roundtrip(&mut churn, &[b"DEL", k.as_bytes()]),
            Reply::Int(1)
        );
        drain_handle.flush_reclamation();
        last = gauge.unreclaimed();
    }
    assert!(
        last <= DRAIN_BOUND,
        "unreclaimed stuck at {last} of {} retired — a connection thread \
         is holding an epoch guard across blocking I/O",
        after_churn.retired
    );

    drop(idle);
    drop(warm_get);
    drop(warm_set);
    drop(churn);
    server.stop();
    service.shutdown();
}
