//! `rewind-net`: the REWIND store on the wire.
//!
//! A pipelined, length-prefixed binary protocol ([`protocol`]) served over
//! TCP ([`NetServer`], an epoll reactor: a fixed pool of event-loop
//! threads, whatever the number of connections), a client SDK
//! ([`NetClient`] blocking, [`PipelinedClient`] many-in-flight), and an
//! open-loop load simulator ([`run_sim`]) that drives tens of thousands of
//! logical connections over a few real sockets.
//!
//! The server is a thin adapter: it does not reimplement any storage
//! semantics. Reads go straight to [`ShardedStore::get`] / `scan`; writes
//! go through the store's completion-based async front-end (`submit_put`,
//! `submit_delete`, `submit_apply`), and a response leaves the socket
//! exactly when the operation's commit group settles — an acked write is a
//! durable write. Responses are matched to requests by id and may arrive
//! out of order, which is what makes pipelining worth having: one
//! connection can keep a full commit group's worth of writes in flight.
//!
//! Overload is explicit, not emergent. Each connection has a bounded
//! in-flight window and the server watches the store's own in-flight depth
//! (the `group_queue_depth` quantity); requests beyond either bound get a
//! typed `BUSY` response and nothing else happens. See [`ServerConfig`].
//!
//! A peer that half-closes its socket, or sends a malformed frame, still
//! gets an answer to every request the server read before that point; then
//! the server closes the connection.
//!
//! The server is built on `epoll` and `eventfd`, so this crate is
//! Linux-only.
//!
//! ```no_run
//! use rewind_net::{NetClient, NetServer, ServerConfig};
//! use rewind_shard::{ShardConfig, ShardedStore};
//! use std::sync::Arc;
//!
//! let store = Arc::new(ShardedStore::create(ShardConfig::new(2)).unwrap());
//! let server = NetServer::start(Arc::clone(&store), ServerConfig::default()).unwrap();
//! let mut client = NetClient::connect(server.local_addr()).unwrap();
//! client.put(7, [1, 2, 3, 4]).unwrap();
//! assert_eq!(client.get(7).unwrap(), Some([1, 2, 3, 4]));
//! ```
//!
//! [`ShardedStore::get`]: rewind_shard::ShardedStore::get

#![warn(missing_docs)]

pub mod client;
pub mod protocol;
mod reactor;
pub mod server;
pub mod sim;

pub use client::{NetClient, NetCompletion, NetError, PipeStats, PipelinedClient};
pub use protocol::{BusyReason, FrameError, Request, Response, MAX_FRAME, MAX_SCAN_LIMIT};
pub use server::{NetServer, ServerConfig};
pub use sim::{run_churn, run_sim, ChurnConfig, ChurnReport, SimConfig, SimReport};

#[cfg(test)]
mod tests {
    use super::*;
    use rewind_shard::{KeyOp, ShardConfig, ShardedStore};
    use std::sync::Arc;

    fn serve() -> (Arc<ShardedStore>, NetServer) {
        let store =
            Arc::new(ShardedStore::create(ShardConfig::new(2).shard_capacity(4 << 20)).unwrap());
        let server = NetServer::start(Arc::clone(&store), ServerConfig::default()).unwrap();
        (store, server)
    }

    #[test]
    fn full_request_surface_over_one_connection() {
        let (_store, server) = serve();
        let mut c = NetClient::connect(server.local_addr()).unwrap();
        assert_eq!(c.get(1).unwrap(), None);
        c.put(1, [10, 11, 12, 13]).unwrap();
        assert_eq!(c.get(1).unwrap(), Some([10, 11, 12, 13]));
        assert!(c.delete(1).unwrap());
        assert!(!c.delete(1).unwrap());
        for k in 0..20u64 {
            c.put(k, [k, 0, 0, 0]).unwrap();
        }
        let entries = c.scan(5, 14, 100).unwrap();
        assert_eq!(entries.len(), 10);
        assert_eq!(entries.first().unwrap().0, 5);
        assert_eq!(entries.last().unwrap().0, 14);
        let applied = c
            .transact(vec![KeyOp::Put(100, [9; 4]), KeyOp::Delete(3)])
            .unwrap();
        assert_eq!(applied, 2);
        assert_eq!(c.get(100).unwrap(), Some([9; 4]));
        assert_eq!(c.get(3).unwrap(), None);
    }

    #[test]
    fn pipelined_writes_settle_out_of_order_reads_overtake() {
        let (store, server) = serve();
        let p = PipelinedClient::connect(server.local_addr()).unwrap();
        let mut waits = Vec::new();
        for k in 0..64u64 {
            waits.push(
                p.submit(&Request::Put {
                    key: k,
                    value: [k, k, k, k],
                })
                .unwrap(),
            );
        }
        for w in waits {
            assert!(matches!(w.wait().unwrap(), Response::Done));
        }
        for k in 0..64u64 {
            assert_eq!(store.get(k).unwrap(), Some([k, k, k, k]));
        }
        let s = p.stats();
        assert_eq!(s.completed, 64);
        assert_eq!(s.busy + s.errors, 0);
    }

    #[test]
    fn window_overflow_answers_busy_without_executing() {
        let store =
            Arc::new(ShardedStore::create(ShardConfig::new(1).shard_capacity(4 << 20)).unwrap());
        let server = NetServer::start(
            Arc::clone(&store),
            ServerConfig::default().max_inflight_per_conn(2),
        )
        .unwrap();
        let p = PipelinedClient::connect(server.local_addr()).unwrap();
        // Flood far past the window; the overflow must come back BUSY and
        // the connection must stay usable.
        let mut results = Vec::new();
        for k in 0..256u64 {
            results.push(
                p.submit(&Request::Put {
                    key: k,
                    value: [1; 4],
                })
                .unwrap(),
            );
        }
        let mut done = 0u64;
        let mut busy = 0u64;
        for r in results {
            match r.wait().unwrap() {
                Response::Done => done += 1,
                Response::Busy(BusyReason::Window) => busy += 1,
                other => panic!("unexpected response {other:?}"),
            }
        }
        assert_eq!(done + busy, 256);
        assert!(busy > 0, "a 2-deep window must reject some of 256 floods");
        // The connection survived the rejections.
        let done_after = p
            .submit(&Request::Put {
                key: 999,
                value: [7; 4],
            })
            .unwrap();
        p.drain(std::time::Duration::from_secs(10));
        assert!(matches!(done_after.wait().unwrap(), Response::Done));
        assert_eq!(store.get(999).unwrap(), Some([7; 4]));
    }

    #[test]
    fn store_backpressure_answers_busy_with_reason() {
        let store =
            Arc::new(ShardedStore::create(ShardConfig::new(1).shard_capacity(4 << 20)).unwrap());
        // max_store_inflight = 0: every write is over the threshold.
        let server = NetServer::start(
            Arc::clone(&store),
            ServerConfig::default().max_store_inflight(0),
        )
        .unwrap();
        let mut c = NetClient::connect(server.local_addr()).unwrap();
        match c.put(1, [1; 4]) {
            Err(NetError::Busy(BusyReason::Store)) => {}
            other => panic!("expected store-busy, got {other:?}"),
        }
        // Reads are not gated by write backpressure.
        assert_eq!(c.get(1).unwrap(), None);
    }

    #[test]
    fn unknown_opcode_gets_an_error_and_the_stream_survives() {
        use std::io::Write as _;
        let (_store, server) = serve();
        let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
        let mut frame = Vec::new();
        frame.extend_from_slice(&9u32.to_le_bytes());
        frame.extend_from_slice(&77u64.to_le_bytes());
        frame.push(200);
        raw.write_all(&frame).unwrap();
        let mut reader = std::io::BufReader::new(raw.try_clone().unwrap());
        let (id, resp) = protocol::read_response(&mut reader).unwrap().unwrap();
        assert_eq!(id, 77);
        assert!(matches!(resp, Response::Error(_)));
        // Same socket still serves real requests.
        raw.write_all(&protocol::encode_request(78, &Request::Get { key: 5 }))
            .unwrap();
        let (id, resp) = protocol::read_response(&mut reader).unwrap().unwrap();
        assert_eq!(id, 78);
        assert_eq!(resp, Response::Value(None));
    }

    #[test]
    fn churn_smoke_returns_all_counters_to_zero() {
        let (_store, server) = serve();
        let report = run_churn(
            server.local_addr(),
            &ChurnConfig {
                cycles: 25,
                burst: 4,
                threads: 2,
                ..ChurnConfig::default()
            },
        )
        .unwrap();
        assert_eq!(report.opened, 50);
        assert_eq!(report.connect_failures, 0);
        assert_eq!(report.completed, 200);
        assert_eq!(report.busy + report.errors, 0);
        assert!(report.cycle_latency.count > 0);
        // Every churned connection must be fully released by the server.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while (server.open_connections() > 0 || server.tracked_conns() > 0)
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert_eq!(server.open_connections(), 0);
        assert_eq!(server.tracked_conns(), 0);
    }

    #[test]
    fn shutdown_severs_connections_and_joins() {
        let (_store, mut server) = serve();
        let mut c = NetClient::connect(server.local_addr()).unwrap();
        c.put(1, [1; 4]).unwrap();
        server.shutdown();
        server.shutdown(); // idempotent
        assert!(c.get(1).is_err(), "socket must be dead after shutdown");
    }

    #[test]
    fn open_loop_sim_smoke() {
        let (_store, server) = serve();
        let report = run_sim(
            server.local_addr(),
            &SimConfig {
                connections: 1000,
                pipes: 2,
                rate_per_conn: 20.0,
                duration: std::time::Duration::from_millis(300),
                ..SimConfig::default()
            },
        )
        .unwrap();
        assert_eq!(report.connections, 1000);
        assert!(report.stats.submitted > 0);
        assert!(report.drained, "all in-flight requests must settle");
        assert_eq!(
            report.stats.completed + report.stats.busy + report.stats.errors,
            report.stats.submitted
        );
        assert!(report.latency.count > 0);
    }
}
