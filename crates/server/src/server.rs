//! The TCP front door: listener, acceptor thread, connection threads,
//! and lifecycle (stop signal, graceful join).
//!
//! Threading model: **thread per connection over blocking sockets with
//! read timeouts**. The build environment has no async I/O reactor
//! (no epoll wrapper, no tokio), and none is needed — the submission
//! rings are the multiplexing point. A connection thread parses bytes
//! and hands each pipeline to `lf-async` through its own structure
//! handle (made on its first keyed pipeline): a leg whose lane is idle
//! runs right there, and the rest queue to the lane workers and are
//! awaited on completion cells. Every epoch announcement an inline leg
//! makes is withdrawn before `batch_on` returns, so no guard lives
//! across a socket call or an await on a connection thread (asserted by
//! the `pin_hygiene` integration test).
//!
//! Shutdown: [`StopSignal`] is a flag + condvar pair every thread
//! checks on its timeout. Setting it also makes a loopback
//! self-connection to unblock the acceptor's blocking `accept`; the
//! acceptor then joins the connection threads, so [`Server::stop`]
//! returns only when every socket is closed and every counter final.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use lf_async::{AsyncBackend, Service};

use crate::conn;
use crate::metrics::ServerMetrics;

/// Key/value bytes on the wire.
pub type Bytes = Vec<u8>;

/// The backend bound the wire server needs: byte keys and values.
pub trait ByteBackend: AsyncBackend<Key = Bytes, Value = Bytes> {}
impl<B: AsyncBackend<Key = Bytes, Value = Bytes>> ByteBackend for B {}

/// Cooperative stop: a cheap flag for hot-path checks plus a condvar
/// so waiting threads ([`Server::wait`], the acceptor's error back-off)
/// park instead of polling.
pub struct StopSignal {
    flag: AtomicBool,
    lock: Mutex<()>,
    cv: Condvar,
}

impl Default for StopSignal {
    fn default() -> Self {
        StopSignal {
            flag: AtomicBool::new(false),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }
}

impl StopSignal {
    /// Whether stop has been requested.
    pub fn is_set(&self) -> bool {
        // ord: Relaxed — SRV.stop: advisory flag; every waiter re-checks on a bounded timeout
        self.flag.load(Ordering::Relaxed)
    }

    /// Request stop and wake every parked waiter.
    pub fn set(&self) {
        // ord: Relaxed — SRV.stop: advisory flag; every waiter re-checks on a bounded timeout
        self.flag.store(true, Ordering::Relaxed);
        let _guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        self.cv.notify_all();
    }

    /// Park for at most `timeout` or until [`set`](Self::set) is
    /// called (spurious wakeups allowed; callers re-check).
    pub fn wait_timeout(&self, timeout: Duration) {
        let guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        if !self.is_set() {
            let _ = self
                .cv
                .wait_timeout(guard, timeout)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Block until [`set`](Self::set) is called.
    pub fn wait(&self) {
        while !self.is_set() {
            self.wait_timeout(Duration::from_millis(50));
        }
    }
}

/// Configuration surface for [`Server`].
///
/// ```no_run
/// use std::sync::Arc;
/// use lf_async::ServiceBuilder;
/// use lf_map::{BucketMap, DEFAULT_BUCKETS};
/// use lf_server::ServerBuilder;
///
/// let map = BucketMap::<Vec<u8>, Vec<u8>>::new(DEFAULT_BUCKETS);
/// let service = Arc::new(ServiceBuilder::new().workers(2).build(map));
/// let server = ServerBuilder::new()
///     .addr("127.0.0.1:0")
///     .serve(service)
///     .unwrap();
/// println!("listening on {}", server.local_addr());
/// server.stop();
/// ```
#[derive(Debug, Clone)]
pub struct ServerBuilder {
    addr: String,
    read_timeout: Duration,
    allow_shutdown: bool,
}

impl Default for ServerBuilder {
    fn default() -> Self {
        ServerBuilder {
            addr: "127.0.0.1:0".into(),
            read_timeout: Duration::from_millis(50),
            allow_shutdown: false,
        }
    }
}

impl ServerBuilder {
    /// Defaults: loopback on an ephemeral port, 50 ms read timeout,
    /// `SHUTDOWN` refused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Listen address (`host:port`; port 0 picks an ephemeral port —
    /// read the real one from [`Server::local_addr`]).
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Socket read timeout — the granularity at which idle connection
    /// threads notice the stop signal.
    pub fn read_timeout(mut self, t: Duration) -> Self {
        self.read_timeout = t.max(Duration::from_millis(1));
        self
    }

    /// Let clients stop the whole server with `SHUTDOWN` (test
    /// harnesses and the smoke script; leave off otherwise).
    pub fn allow_shutdown(mut self, yes: bool) -> Self {
        self.allow_shutdown = yes;
        self
    }

    /// Bind, start the acceptor, and return the running server.
    pub fn serve<B: ByteBackend>(self, service: Arc<Service<B>>) -> io::Result<Server<B>> {
        let listener = TcpListener::bind(&self.addr)?;
        let local_addr = listener.local_addr()?;
        let metrics = Arc::new(ServerMetrics::new());
        let stop = Arc::new(StopSignal::default());
        let acceptor = {
            let service = Arc::clone(&service);
            let metrics = Arc::clone(&metrics);
            let stop = Arc::clone(&stop);
            let read_timeout = self.read_timeout;
            let allow_shutdown = self.allow_shutdown;
            std::thread::Builder::new()
                .name("lf-server-acceptor".into())
                .spawn(move || {
                    accept_loop(
                        &listener,
                        local_addr,
                        &service,
                        &metrics,
                        &stop,
                        read_timeout,
                        allow_shutdown,
                    );
                })
                .expect("spawn acceptor")
        };
        Ok(Server {
            service,
            metrics,
            stop,
            local_addr,
            acceptor: Some(acceptor),
        })
    }
}

/// A running wire server. Stop it with [`stop`](Server::stop); dropping
/// it stops it too.
pub struct Server<B: ByteBackend> {
    service: Arc<Service<B>>,
    metrics: Arc<ServerMetrics>,
    stop: Arc<StopSignal>,
    local_addr: SocketAddr,
    acceptor: Option<std::thread::JoinHandle<()>>,
}

impl<B: ByteBackend> Server<B> {
    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The server-layer counters.
    pub fn metrics(&self) -> &Arc<ServerMetrics> {
        &self.metrics
    }

    /// The service this server fronts.
    pub fn service(&self) -> &Arc<Service<B>> {
        &self.service
    }

    /// Whether stop has been requested (by [`stop`](Server::stop) or a
    /// client's `SHUTDOWN`).
    pub fn stop_requested(&self) -> bool {
        self.stop.is_set()
    }

    /// Park until stop is requested — what an example binary's main
    /// thread does after printing the address.
    pub fn wait(&self) {
        self.stop.wait();
    }

    /// Stop accepting, close every connection, join every thread.
    /// Idempotent; also runs on drop. The fronted service is left
    /// running (the caller owns its shutdown).
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        trigger_stop(&self.stop, self.local_addr);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
    }
}

impl<B: ByteBackend> Drop for Server<B> {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

impl<B: ByteBackend> std::fmt::Debug for Server<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.local_addr)
            .finish()
    }
}

/// Set the stop signal and poke the (possibly accept-blocked) listener
/// with a loopback self-connection so it observes the flag. Shared by
/// [`Server::stop`] and the `SHUTDOWN` command handler.
pub(crate) fn trigger_stop(stop: &StopSignal, addr: SocketAddr) {
    stop.set();
    // Best-effort: if the acceptor already exited, nobody is listening
    // and the connect simply fails.
    let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(250));
}

#[allow(clippy::too_many_arguments)]
fn accept_loop<B: ByteBackend>(
    listener: &TcpListener,
    local_addr: SocketAddr,
    service: &Arc<Service<B>>,
    metrics: &Arc<ServerMetrics>,
    stop: &Arc<StopSignal>,
    read_timeout: Duration,
    allow_shutdown: bool,
) {
    // Wedged-acceptor detection rides the service's watchdog when one
    // was enabled; a parked accept is idle, not stalled.
    let hb = service.watchdog().map(|wd| wd.register("acceptor"));
    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let mut next_conn = 0u64;
    loop {
        if let Some(h) = &hb {
            h.idle();
        }
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if stop.is_set() {
                    break;
                }
                // A persistent accept error (EMFILE when the fd table
                // is full, ENOBUFS, …) would otherwise busy-spin this
                // thread. Back off on the stop condvar so the loop
                // retries at a bounded rate and still wakes instantly
                // on shutdown.
                stop.wait_timeout(Duration::from_millis(50));
                continue;
            }
        };
        if stop.is_set() {
            break;
        }
        if let Some(h) = &hb {
            h.busy();
            h.beat();
        }
        metrics.conn_opened();
        let id = next_conn;
        next_conn += 1;
        let service = Arc::clone(service);
        let metrics_c = Arc::clone(metrics);
        let stop_c = Arc::clone(stop);
        let spawned = std::thread::Builder::new()
            .name(format!("lf-server-conn-{id}"))
            .spawn(move || {
                conn::run(
                    &service,
                    &metrics_c,
                    &stop_c,
                    local_addr,
                    stream,
                    id,
                    read_timeout,
                    allow_shutdown,
                );
                metrics_c.conn_closed();
            });
        match spawned {
            Ok(handle) => conns.push(handle),
            Err(_) => metrics.conn_closed(),
        }
        // Opportunistically reap finished connections so a long-lived
        // acceptor does not accumulate dead handles.
        conns.retain(|h| !h.is_finished());
    }
    if let Some(h) = &hb {
        h.idle();
    }
    for h in conns {
        let _ = h.join();
    }
}
