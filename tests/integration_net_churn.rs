//! Connection-churn regression suite for the network layer.
//!
//! The leak class this pins: a server that keeps any per-connection state
//! (a socket clone, a slab entry, a thread handle) for every connection
//! *ever accepted* leaks fds until the process hits a limit. These tests
//! churn thousands of connections — sequentially, concurrently via
//! [`run_churn`], and as a held population of 1000 real sockets — and
//! assert every per-connection resource the server tracks returns to zero,
//! the `net_connections` gauge included, while the thread pool stays fixed. The last test re-proves the wire durability contract under
//! churn: an ack received on a connection that has since closed still
//! survives a dirty store teardown and reopen.

use rewind::net::{run_churn, ChurnConfig, NetClient, PipelinedClient};
use rewind::net::{Request, Response};
use rewind::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tmppath(name: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "rewind-churn-{}-{}-{}",
        name,
        std::process::id(),
        n
    ))
}

fn serve_mem() -> (Arc<ShardedStore>, NetServer) {
    let store =
        Arc::new(ShardedStore::create(ShardConfig::new(2).shard_capacity(8 << 20)).unwrap());
    let server = NetServer::start(Arc::clone(&store), ServerConfig::default()).unwrap();
    (store, server)
}

/// Polls until the server has released every per-connection resource (the
/// close path runs on server threads after the client's drop returns).
fn assert_drains_to_zero(store: &ShardedStore, server: &NetServer) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while (server.open_connections() > 0
        || server.tracked_conns() > 0
        || store.obs().metrics().net_connections.get() > 0)
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.open_connections(), 0, "open_conns leaked");
    assert_eq!(server.tracked_conns(), 0, "per-conn state leaked");
    assert_eq!(
        store.obs().metrics().net_connections.get(),
        0,
        "net_connections gauge drifted"
    );
}

/// Thousands of strictly sequential open→use→close cycles: every tracked
/// resource must return to zero and the thread pool must not grow with the
/// number of connections ever accepted.
#[test]
fn sequential_churn_releases_every_connection() {
    let (store, server) = serve_mem();
    let addr = server.local_addr();
    const CONNS: u64 = 1500;
    for i in 0..CONNS {
        let mut c = NetClient::connect(addr).unwrap();
        c.put(i % 64, [i, 0, 0, 0]).unwrap();
        assert_eq!(c.get(i % 64).unwrap(), Some([i, 0, 0, 0]));
    }
    assert_drains_to_zero(&store, &server);
    assert_eq!(
        server.tracked_threads(),
        ServerConfig::default().reactor_threads + 1,
        "reactor thread pool must not scale with connections"
    );
}

/// Concurrent churn through the simulator's churn mode: overlapping
/// connects, pipelined bursts, and closes from several threads at once.
#[test]
fn concurrent_churn_is_leak_free_and_reconciles() {
    let (store, server) = serve_mem();
    let cfg = ChurnConfig {
        cycles: 150,
        burst: 8,
        threads: 8,
        ..ChurnConfig::default()
    };
    let report = run_churn(server.local_addr(), &cfg).unwrap();
    assert_eq!(report.connect_failures, 0, "connects failed under churn");
    assert_eq!(report.opened, 150 * 8);
    assert_eq!(
        report.completed + report.busy + report.errors,
        (150 * 8 * 8) as u64,
        "every burst request must be accounted for"
    );
    assert_eq!(report.errors, 0);
    assert!(report.cycle_latency.count == report.opened);
    assert_drains_to_zero(&store, &server);
}

/// 1000 concurrently open real sockets served by a fixed thread pool.
#[test]
fn reactor_holds_1000_sockets_on_a_fixed_thread_pool() {
    let (store, server) = serve_mem();
    let addr = server.local_addr();
    let mut held = Vec::with_capacity(1000);
    for i in 0..1000u64 {
        held.push(NetClient::connect(addr).unwrap());
        if i % 100 == 0 {
            // Interleave traffic while the population grows.
            let c = held.last_mut().unwrap();
            c.put(i, [i; 4]).unwrap();
        }
    }
    // Connects complete in the kernel's accept backlog before the server's
    // accept loop counts them; wait for the population to register.
    let deadline = Instant::now() + Duration::from_secs(20);
    while server.open_connections() < 1000 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(server.open_connections() >= 1000);
    assert_eq!(
        server.tracked_threads(),
        ServerConfig::default().reactor_threads + 1,
        "thread count must be independent of 1000 open sockets"
    );
    // Every held socket still gets service while all are open.
    for (i, c) in held.iter_mut().enumerate().step_by(97) {
        let k = 2000 + i as u64;
        c.put(k, [k; 4]).unwrap();
        assert_eq!(c.get(k).unwrap(), Some([k; 4]));
    }
    drop(held);
    assert_drains_to_zero(&store, &server);
}

/// Durability across churn: every write acked on a connection that closed
/// long before the teardown must be present after a dirty drop of the store
/// and a reopen from the pool files alone.
#[test]
fn acked_churn_writes_survive_dirty_teardown_and_reopen() {
    let dir = tmppath("churn-teardown");
    let cfg = ShardConfig::new(2).shard_capacity(8 << 20);
    let acked = {
        let store = Arc::new(ShardedStore::create_file(cfg, &dir).unwrap());
        let mut server = NetServer::start(Arc::clone(&store), ServerConfig::default()).unwrap();
        let addr = server.local_addr();
        let mut acked = Vec::new();
        // 40 churned connections, 16 pipelined puts each; the socket
        // closes only after every response arrived.
        for cycle in 0u64..40 {
            let p = PipelinedClient::connect(addr).unwrap();
            let mut pending = Vec::new();
            for i in 0..16u64 {
                let k = cycle * 16 + i;
                if let Ok(h) = p.submit(&Request::Put {
                    key: k,
                    value: [k, !k, k ^ 0xFF, k.rotate_left(9)],
                }) {
                    pending.push((k, h));
                }
            }
            for (k, h) in pending {
                if let Ok(Response::Done) = h.wait() {
                    acked.push(k);
                }
            }
        }
        server.shutdown();
        drop(server);
        // Dirty drop: no flush, no orderly close.
        drop(store);
        acked
    };
    assert!(
        acked.len() > 500,
        "churn cycles should have acked most writes (got {})",
        acked.len()
    );
    let reopened = ShardedStore::open_file(cfg, &dir).unwrap();
    for &k in &acked {
        assert_eq!(
            reopened.get(k).unwrap(),
            Some([k, !k, k ^ 0xFF, k.rotate_left(9)]),
            "acked key {k} lost across churn + teardown + reopen"
        );
    }
    drop(reopened);
    std::fs::remove_dir_all(&dir).ok();
}
