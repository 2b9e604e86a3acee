//! Serve a lock-free skip list over real TCP, speaking enough RESP
//! that `redis-cli` works against it:
//!
//! ```sh
//! cargo run --release --example resp_server              # ephemeral port
//! cargo run --release --example resp_server -- 127.0.0.1:7379
//! ```
//!
//! then, from another terminal:
//!
//! ```text
//! $ redis-cli -p 7379 SET answer 42
//! OK
//! $ redis-cli -p 7379 GET answer
//! "42"
//! $ redis-cli -p 7379 SCAN 0 COUNT 4
//! 1) "616e73776572"
//! 2) 1) "answer"
//! $ redis-cli -p 7379 SHUTDOWN
//! ```
//!
//! The backing tier is the ordered skip list (so `SCAN` pages the
//! keyspace in key order), lanes drain the default `batch_max` per epoch
//! pin, overload surfaces as `-BUSY shed`/`-BUSY rejected` replies, and
//! every lane worker plus the acceptor heartbeats into the
//! `lf-trace` stall watchdog. Set `LF_TRACE_DUMP=<path>` to write the
//! flight-recorder ring as a JSON-lines dump on exit — `lf-trace check`
//! validates it; the CI server-smoke job does exactly that.
//!
//! `SHUTDOWN` is honored because this process opts in with
//! `allow_shutdown(true)`; embedders that do not want a remote off
//! switch simply leave it off and `SHUTDOWN` answers `-ERR`.

use std::sync::Arc;
use std::time::Duration;

use lf_async::{AsyncSkipList, BackpressurePolicy, ServiceBuilder};
use lf_core::SkipList;
use lf_server::{Bytes, ServerBuilder};

fn main() {
    let addr = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "127.0.0.1:0".into());

    // With LF_TRACE_DUMP set, trace the whole serving run and dump the
    // flight-recorder rings on exit — the CI server-smoke job audits
    // that dump with `lf-trace check`.
    let trace_dump = lf_trace::recorder::env_dump_path();
    if trace_dump.is_some() {
        lf_trace::enable();
    }

    let service: Arc<AsyncSkipList<Bytes, Bytes>> = Arc::new(
        ServiceBuilder::new()
            .workers(2)
            .queue_capacity(256)
            .policy(BackpressurePolicy::Shed)
            .watchdog(Duration::from_secs(5))
            .build(SkipList::new()),
    );

    let server = ServerBuilder::new()
        .addr(addr)
        .allow_shutdown(true)
        .serve(Arc::clone(&service))
        .expect("bind");

    println!("lf-server listening on {}", server.local_addr());
    println!(
        "try: redis-cli -p {} PING  (SHUTDOWN to stop)",
        server.local_addr().port()
    );

    // Blocks until a client issues SHUTDOWN (allowed above).
    server.wait();

    let snap = server.metrics().snapshot();
    println!(
        "served {} connections, {} commands ({} ok, {} shed, {} rejected, {} protocol errors)",
        snap.accepted, snap.commands, snap.ok, snap.shed, snap.rejected, snap.protocol_errors
    );
    drop(server);
    service.shutdown();

    if let Some(path) = trace_dump {
        match lf_trace::recorder::dump_to_path(&path, "resp_server exit") {
            Ok(events) => println!("wrote {events} trace events to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
        lf_trace::disable();
    }
}
