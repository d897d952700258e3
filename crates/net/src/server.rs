//! The network server: configuration, lifecycle, accepting and admission
//! control.
//!
//! [`NetServer`] serves the protocol from an epoll readiness reactor (the
//! `reactor` module): one blocking accept thread round-robins accepted
//! sockets across a fixed pool of [`ServerConfig::reactor_threads`] event
//! loops, each of which multiplexes its connections over one `epoll`
//! instance of nonblocking sockets. The thread count does not grow with the
//! number of open connections. The server is Linux-only.
//!
//! Admission control is two gates, both checked before a write is
//! submitted:
//!
//! - **window** — per-connection in-flight cap
//!   ([`ServerConfig::max_inflight_per_conn`]). Bounds how much a single
//!   pipelined connection can have waiting on commit groups.
//! - **store** — global backpressure off the store's own in-flight counter
//!   ([`ShardedStore::ops_in_flight`], the same quantity the
//!   `group_queue_depth` gauge samples), capped by
//!   [`ServerConfig::max_store_inflight`].
//!
//! A rejected request is answered with a typed `BUSY` response carrying the
//! reason; nothing is executed, and the connection stays healthy.
//!
//! A connection ends when its peer half-closes it or sends a malformed
//! frame. Every request read before that point is still answered — reads
//! at once, writes when their commit group settles — and then the server
//! closes the connection.

use crate::protocol::BusyReason;
use crate::reactor::{self, LoopShared};
use rewind_obs::EventKind;
use rewind_shard::ShardedStore;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Tunables for [`NetServer::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind; use port 0 to let the OS pick
    /// (read it back with [`NetServer::local_addr`]).
    pub addr: String,
    /// Per-connection in-flight write window: submitted-but-unsettled
    /// requests beyond this are rejected with `BUSY` ([`BusyReason::Window`]).
    pub max_inflight_per_conn: usize,
    /// Store-wide backpressure threshold: when the store's aggregate
    /// in-flight depth is at or above this, new writes on every connection
    /// are rejected with `BUSY` ([`BusyReason::Store`]).
    pub max_store_inflight: u64,
    /// Event-loop threads (clamped to at least 1).
    pub reactor_threads: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_inflight_per_conn: 256,
            max_store_inflight: 8192,
            reactor_threads: 2,
        }
    }
}

impl ServerConfig {
    /// Config bound to `addr` with default admission limits.
    pub fn bind(addr: impl Into<String>) -> Self {
        ServerConfig {
            addr: addr.into(),
            ..ServerConfig::default()
        }
    }

    /// Sets the per-connection in-flight window.
    pub fn max_inflight_per_conn(mut self, n: usize) -> Self {
        self.max_inflight_per_conn = n;
        self
    }

    /// Sets the store-wide backpressure threshold.
    pub fn max_store_inflight(mut self, n: u64) -> Self {
        self.max_store_inflight = n;
        self
    }

    /// Sets the event-loop thread count.
    pub fn reactor_threads(mut self, n: usize) -> Self {
        self.reactor_threads = n;
        self
    }
}

/// State shared by the accept thread, every event loop, and the server
/// handle.
pub(crate) struct ServerShared {
    pub(crate) store: Arc<ShardedStore>,
    cfg: ServerConfig,
    pub(crate) stop: AtomicBool,
    next_conn: AtomicU64,
    /// Accepted-and-not-yet-closed connections (the `net_connections`
    /// quantity, kept as an atomic so churn tests can read it directly).
    open_conns: AtomicUsize,
    /// Slab-resident connection states across all loops; proves the slabs
    /// don't leak entries under churn.
    pub(crate) live_conns: AtomicUsize,
}

impl ServerShared {
    /// Why a write was turned away, or `None` to admit it: first the
    /// connection's window (`inflight` of its writes are unsettled), then
    /// the store-wide depth.
    pub(crate) fn admit(&self, inflight: usize) -> Option<BusyReason> {
        if inflight >= self.cfg.max_inflight_per_conn {
            return Some(BusyReason::Window);
        }
        if self.store.ops_in_flight() >= self.cfg.max_store_inflight {
            return Some(BusyReason::Store);
        }
        None
    }

    /// Books one accepted connection as closed after serving `served`
    /// requests.
    pub(crate) fn conn_closed(&self, conn_id: u64, served: u64) {
        let obs = self.store.obs();
        self.open_conns.fetch_sub(1, Ordering::Relaxed);
        obs.metrics().net_connections.decr();
        obs.emit(EventKind::NetClose, 0, conn_id, served);
    }
}

/// A running network front-end over one [`ShardedStore`]: the accept
/// thread plus [`ServerConfig::reactor_threads`] event loops.
///
/// Dropping the handle shuts the server down (see [`NetServer::shutdown`]).
pub struct NetServer {
    shared: Arc<ServerShared>,
    addr: SocketAddr,
    loops: Vec<Arc<LoopShared>>,
    accept: Option<JoinHandle<()>>,
    threads: Vec<JoinHandle<()>>,
}

impl NetServer {
    /// Binds `cfg.addr` and starts serving `store`. Returns once the
    /// listener is live; connections are handled on background threads.
    pub fn start(store: Arc<ShardedStore>, cfg: ServerConfig) -> io::Result<NetServer> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let n_loops = cfg.reactor_threads.max(1);
        // Built up in place so that a failed spawn below drops a handle
        // whose shutdown joins the loops already running.
        let mut server = NetServer {
            shared: Arc::new(ServerShared {
                store,
                cfg,
                stop: AtomicBool::new(false),
                next_conn: AtomicU64::new(0),
                open_conns: AtomicUsize::new(0),
                live_conns: AtomicUsize::new(0),
            }),
            addr: listener.local_addr()?,
            loops: Vec::with_capacity(n_loops),
            accept: None,
            threads: Vec::with_capacity(n_loops),
        };
        for i in 0..n_loops {
            let (l, h) = reactor::spawn_loop(i, Arc::clone(&server.shared))?;
            server.loops.push(l);
            server.threads.push(h);
        }
        let shared = Arc::clone(&server.shared);
        let loops = server.loops.clone();
        server.accept = Some(
            std::thread::Builder::new()
                .name("net-accept".to_string())
                .spawn(move || accept_loop(listener, shared, loops))?,
        );
        Ok(server)
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Accepted-and-not-yet-closed connections (the `net_connections`
    /// quantity, read directly rather than through the metrics registry).
    pub fn open_connections(&self) -> usize {
        self.shared.open_conns.load(Ordering::Relaxed)
    }

    /// Per-connection states resident in the event loops' slabs. A churn
    /// test asserts this returns to zero once every client has gone.
    pub fn tracked_conns(&self) -> usize {
        self.shared.live_conns.load(Ordering::Relaxed)
    }

    /// Server threads in total: the fixed loop pool plus the acceptor —
    /// independent of how many connections are open.
    pub fn tracked_threads(&self) -> usize {
        self.threads.len() + 1
    }

    /// Stops accepting, severs every open connection, and joins all server
    /// threads. Writes already submitted to the store still settle (their
    /// durability does not depend on the socket), but their responses are
    /// lost with the connection. Idempotent.
    pub fn shutdown(&mut self) {
        if self.shared.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the acceptor with a throwaway connection, then wake every
        // loop so each sees the stop flag and tears down its slab.
        let _ = TcpStream::connect(self.addr);
        for l in &self.loops {
            l.wake();
        }
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<ServerShared>, loops: Vec<Arc<LoopShared>>) {
    let mut rr = 0usize;
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                // EMFILE/ENFILE under fd exhaustion is persistent — retrying
                // immediately spins this thread at 100% CPU until fds free
                // up. Back off briefly; shutdown still gets through because
                // it sets `stop` before the wakeup connect.
                std::thread::sleep(std::time::Duration::from_millis(25));
                continue;
            }
        };
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        // Responses are small frames written as they settle; Nagle would
        // batch them against the client's delayed ACKs and stall pipelines.
        let _ = stream.set_nodelay(true);
        let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        let obs = shared.store.obs();
        obs.emit(EventKind::NetAccept, 0, conn_id, 0);
        shared.open_conns.fetch_add(1, Ordering::Relaxed);
        // incr/decr, not set(): concurrent accepts and closes racing a
        // read-then-set would otherwise leave the gauge permanently skewed.
        obs.metrics().net_connections.incr();
        loops[rr % loops.len()].hand_off(stream, conn_id);
        rr = rr.wrapping_add(1);
    }
}
