//! `lf-server`: a RESP wire-protocol front door over `lf-async`.
//!
//! The last layer between the in-process serving façade and an actual
//! network: a TCP server speaking a RESP2 subset
//! (`GET`/`SET`/`DEL`/`EXISTS`/`MGET`/`SCAN`/`PING`/`INFO`, plus
//! `QUIT` and an opt-in `SHUTDOWN`) that multiplexes connections into
//! the existing `lf-async` submission rings. `redis-cli` speaks to it
//! out of the box.
//!
//! Three design commitments (DESIGN.md §15):
//!
//! * **Pipelining without reordering** — each connection hands a
//!   parsed read chunk to `lf-async` as one batch, one leg per lane in
//!   parse order, then writes replies strictly in arrival order.
//!   Effects are ordered too: every request touching one key lands on
//!   one lane, whose leg runs back to back, so a pipelined
//!   `SET k; GET k` reads its own write on every tier; only cross-key
//!   order between lanes (and `SCAN`'s view of in-flight writes) is
//!   left unspecified.
//! * **Backpressure as protocol errors** — the service's Shed/Reject
//!   outcomes surface as `-BUSY shed` / `-BUSY rejected`, so overload
//!   is *observable and accountable* on the wire: every command sent
//!   resolves as exactly one of ok / shed / rejected / errors, and a
//!   busy multi-key `DEL` that already removed some keys discloses it
//!   in the reply instead of implying a clean refusal.
//! * **One pin per drain, sized at build** — a leg whose lane is idle
//!   runs on the connection thread
//!   ([`Service::batch_on`](lf_async::Service::batch_on)), and any
//!   other leg queues to the lane worker, which drains up to the
//!   service's fixed `batch_max` requests under one epoch pin — the
//!   paper-side amortization lever.
//!
//! Connection and acceptor threads heartbeat into the service's
//! `lf-trace` watchdog (when enabled), counters export through
//! `lf-metrics` under a `subsystem="server"` label, and no epoch
//! announcement outlives a `batch_on` call on a connection thread.

pub mod resp;

mod conn;
mod metrics;
mod server;

pub use metrics::{ServerMetrics, ServerSnapshot, SERVER_LABEL};
pub use server::{ByteBackend, Bytes, Server, ServerBuilder, StopSignal};
