//! Cross-crate test: the network layer end to end through the facade.
//!
//! The `rewind-net` unit tests pin the codec and the server's admission
//! mechanics. These tests exercise what only the full stack shows: a hostile
//! or dying peer cannot wedge the server, a flooded connection degrades to
//! typed `BUSY` instead of corrupting state, and — the durability contract
//! on the wire — a response acked to the client survives tearing the server
//! and the store down mid-load and reopening from the pool files alone.

use rewind::net::protocol::{self, Request, Response};
use rewind::net::{
    run_sim, BusyReason, NetClient, NetServer, PipelinedClient, ServerConfig, SimConfig,
};
use rewind::prelude::*;
use std::io::Write as _;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn tmppath(name: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!("rewind-net-{}-{}-{}", name, std::process::id(), n))
}

fn serve_mem() -> (Arc<ShardedStore>, NetServer) {
    let store =
        Arc::new(ShardedStore::create(ShardConfig::new(2).shard_capacity(8 << 20)).unwrap());
    let server = NetServer::start(Arc::clone(&store), ServerConfig::default()).unwrap();
    (store, server)
}

/// The server stays healthy across every class of broken peer: truncated
/// frames, oversized lengths, pure garbage, and a connection dropped in the
/// middle of a request. Each bad actor loses only its own connection.
#[test]
fn hostile_peers_cannot_wedge_the_server() {
    let (store, server) = serve_mem();
    let addr = server.local_addr();

    // 1. Truncated frame: half a PUT, then the socket drops.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        let frame = protocol::encode_request(
            1,
            &Request::Put {
                key: 1,
                value: [1; 4],
            },
        );
        raw.write_all(&frame[..frame.len() / 2]).unwrap();
        // Dropped here, mid-request.
    }

    // 2. Oversized length word: claims a body far past MAX_FRAME.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
        raw.write_all(&[0u8; 64]).unwrap();
        // The server must sever this connection rather than allocate.
        let mut reader = std::io::BufReader::new(raw.try_clone().unwrap());
        assert!(matches!(
            protocol::read_response(&mut reader),
            Ok(None) | Err(_)
        ));
    }

    // 3. Garbage bytes that happen to carry a plausible length.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        let mut junk = Vec::new();
        junk.extend_from_slice(&64u32.to_le_bytes());
        junk.extend(std::iter::repeat_n(0xA5u8, 64));
        raw.write_all(&junk).unwrap();
        let mut reader = std::io::BufReader::new(raw.try_clone().unwrap());
        // Either an ERR response (unknown opcode 0xA5) followed by a close
        // when the next "frame" is malformed, or an immediate close — but
        // never a hang and never a crash.
        let _ = protocol::read_response(&mut reader);
    }

    // After all of that, a well-behaved client gets full service.
    let mut c = rewind::net::NetClient::connect(addr).unwrap();
    c.put(42, [4, 2, 4, 2]).unwrap();
    assert_eq!(c.get(42).unwrap(), Some([4, 2, 4, 2]));
    assert_eq!(store.get(42).unwrap(), Some([4, 2, 4, 2]));
}

/// A connection that floods past its in-flight window gets typed `BUSY`
/// responses, stays usable afterwards, and other connections are unharmed.
#[test]
fn window_overflow_is_typed_busy_and_isolated() {
    let store =
        Arc::new(ShardedStore::create(ShardConfig::new(1).shard_capacity(8 << 20)).unwrap());
    let server = NetServer::start(
        Arc::clone(&store),
        ServerConfig::default().max_inflight_per_conn(4),
    )
    .unwrap();
    let flooder = PipelinedClient::connect(server.local_addr()).unwrap();
    let mut handles = Vec::new();
    for k in 0..512u64 {
        handles.push(
            flooder
                .submit(&Request::Put {
                    key: k,
                    value: [k; 4],
                })
                .unwrap(),
        );
    }
    let (mut done, mut busy) = (0u64, 0u64);
    for h in handles {
        match h.wait().unwrap() {
            Response::Done => done += 1,
            Response::Busy(BusyReason::Window) => busy += 1,
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(done + busy, 512);
    assert!(busy > 0, "flooding a 4-deep window must trip admission");
    assert!(done > 0, "admitted writes must still complete");
    // A second connection sees no interference from the flooder's BUSYs.
    let mut calm = rewind::net::NetClient::connect(server.local_addr()).unwrap();
    calm.put(10_000, [1; 4]).unwrap();
    assert_eq!(calm.get(10_000).unwrap(), Some([1; 4]));
}

/// The durability contract on the wire: every write the server acked before
/// an abrupt teardown is present after reopening the pool files in a fresh
/// store — the response is only written once the commit group's fence
/// retired, so an ack is a promise that survives the process image.
#[test]
fn acked_writes_survive_server_teardown_under_load() {
    let dir = tmppath("teardown");
    let cfg = ShardConfig::new(2).shard_capacity(8 << 20);
    let acked = {
        let store = Arc::new(ShardedStore::create_file(cfg, &dir).unwrap());
        let mut server = NetServer::start(Arc::clone(&store), ServerConfig::default()).unwrap();
        let addr = server.local_addr();
        let writer = std::thread::spawn(move || {
            let p = PipelinedClient::connect(addr).unwrap();
            let mut acked = Vec::new();
            'outer: for batch in 0u64.. {
                let mut pending = Vec::new();
                for i in 0..32u64 {
                    let k = batch * 32 + i;
                    match p.submit(&Request::Put {
                        key: k,
                        value: [k, !k, k ^ 0xFF, k.rotate_left(7)],
                    }) {
                        Ok(h) => pending.push((k, h)),
                        Err(_) => break 'outer,
                    }
                }
                for (k, h) in pending {
                    // Anything but Done — BUSY, error, or a severed
                    // connection — was never acked, so it carries no promise.
                    if let Ok(Response::Done) = h.wait() {
                        acked.push(k);
                    }
                }
            }
            acked
        });
        // Let the load build, then tear the server down while writes are in
        // flight. The writer keeps a record of exactly which puts were
        // acked before its connection died.
        std::thread::sleep(Duration::from_millis(300));
        server.shutdown();
        let acked = writer.join().unwrap();
        drop(server);
        // Dirty drop: no flush call, no orderly close of the store.
        drop(store);
        acked
    };
    assert!(
        !acked.is_empty(),
        "the load window must have acked some writes before teardown"
    );
    let reopened = ShardedStore::open_file(cfg, &dir).unwrap();
    for &k in &acked {
        assert_eq!(
            reopened.get(k).unwrap(),
            Some([k, !k, k ^ 0xFF, k.rotate_left(7)]),
            "acked key {k} lost across teardown + reopen"
        );
    }
    drop(reopened);
    std::fs::remove_dir_all(&dir).ok();
}

/// A panicking transaction closure submitted through the async front-end
/// settles as a typed error — and over the wire the same store keeps
/// serving; the regression this pins is the worker hang that used to leave
/// completions (and therefore network responses) waiting forever.
#[test]
fn panicking_transactions_do_not_wedge_the_service() {
    let (store, server) = serve_mem();
    // Panic a few closures directly against the store the server is using.
    for i in 0..4u64 {
        let c = store.submit_transact_keys(vec![i], move |_tx| -> Result<()> {
            panic!("injected panic {i}");
        });
        match c.wait() {
            Err(RewindError::Panicked(msg)) => assert!(msg.contains("injected panic")),
            other => panic!("expected Panicked, got {other:?}"),
        }
    }
    // The same store, over the wire, is fully alive.
    let mut c = rewind::net::NetClient::connect(server.local_addr()).unwrap();
    c.put(5, [5; 4]).unwrap();
    assert_eq!(
        c.transact(vec![KeyOp::Put(6, [6; 4]), KeyOp::Delete(5)])
            .unwrap(),
        2
    );
    assert_eq!(c.get(6).unwrap(), Some([6; 4]));
    assert_eq!(c.get(5).unwrap(), None);
}

/// The open-loop simulator sustains thousands of logical connections at
/// integration-test scale, fully drains, and its counters reconcile.
#[test]
fn open_loop_sim_reconciles_at_scale() {
    let (_store, server) = serve_mem();
    let report = run_sim(
        server.local_addr(),
        &SimConfig {
            connections: 5_000,
            pipes: 4,
            rate_per_conn: 10.0,
            duration: Duration::from_millis(500),
            read_fraction: 0.8,
            ..SimConfig::default()
        },
    )
    .unwrap();
    assert_eq!(report.connections, 5_000);
    assert!(report.drained, "every in-flight request must settle");
    assert!(
        report.stats.submitted > 100,
        "load window offered too little"
    );
    assert_eq!(
        report.stats.completed + report.stats.busy + report.stats.errors,
        report.stats.submitted,
        "every submitted request must be accounted for"
    );
    assert_eq!(report.stats.errors, 0);
    assert!(report.latency.count == report.stats.submitted);
}

/// SCAN over the wire is capped at `MAX_SCAN_LIMIT` and unknown opcodes are
/// answered (not fatal), pinning the recoverable/fatal split of the codec.
#[test]
fn scan_caps_and_unknown_opcodes_over_the_wire() {
    let (_store, server) = serve_mem();
    let mut c = rewind::net::NetClient::connect(server.local_addr()).unwrap();
    for k in 0..100u64 {
        c.put(k, [k; 4]).unwrap();
    }
    // A limit beyond the cap is clamped server-side, not an error.
    let all = c.scan(0, u64::MAX, u32::MAX).unwrap();
    assert_eq!(all.len(), 100);
    // An unknown opcode on the same connection is answered with ERR…
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    let mut frame = Vec::new();
    frame.extend_from_slice(&9u32.to_le_bytes());
    frame.extend_from_slice(&5u64.to_le_bytes());
    frame.push(99);
    raw.write_all(&frame).unwrap();
    let mut reader = std::io::BufReader::new(raw.try_clone().unwrap());
    let (id, resp) = protocol::read_response(&mut reader).unwrap().unwrap();
    assert_eq!(id, 5);
    assert!(matches!(resp, Response::Error(_)));
    // …and a real request still works on that very socket.
    raw.write_all(&protocol::encode_request(6, &Request::Get { key: 7 }))
        .unwrap();
    let (id, resp) = protocol::read_response(&mut reader).unwrap().unwrap();
    assert_eq!(id, 6);
    assert_eq!(resp, Response::Value(Some([7; 4])));
}

/// A client that pipelines hundreds of SCANs without reading a single
/// response cannot grow server memory without bound. The reactor stalls the
/// connection at the write-buffer high-water mark (disarming `EPOLLIN` and
/// leaving the rest of the requests buffered) and resumes decoding once the
/// peer drains the backlog — so every response still arrives intact and in
/// order, and the connection keeps working afterwards.
#[test]
fn slow_reader_gets_backpressure_not_unbounded_buffering() {
    let store =
        Arc::new(ShardedStore::create(ShardConfig::new(2).shard_capacity(8 << 20)).unwrap());
    let server = NetServer::start(Arc::clone(&store), ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    // Seed 512 keys so every scan response is ~20 KiB: 500 scans is
    // ~10 MiB of responses — far past the reactor's 256 KiB high-water
    // mark even after the kernel's socket buffers absorb what they can —
    // against ~17 KiB of requests that fit in the server's rcvbuf while
    // its reads are disarmed.
    let mut seeder = NetClient::connect(addr).unwrap();
    for k in 0..512u64 {
        seeder.put(k, [k; 4]).unwrap();
    }
    drop(seeder);

    const SCANS: u64 = 500;
    let mut raw = TcpStream::connect(addr).unwrap();
    let mut bytes = Vec::new();
    for id in 0..SCANS {
        bytes.extend_from_slice(&protocol::encode_request(
            id,
            &Request::Scan {
                low: 0,
                high: u64::MAX,
                limit: 4096,
            },
        ));
    }
    raw.write_all(&bytes).unwrap();
    // Give the server time to decode up to the stall point while we
    // deliberately read nothing.
    std::thread::sleep(Duration::from_millis(150));

    let mut reader = std::io::BufReader::new(raw.try_clone().unwrap());
    for id in 0..SCANS {
        let (rid, resp) = protocol::read_response(&mut reader)
            .unwrap()
            .expect("response stream ended before every scan was answered");
        assert_eq!(rid, id, "responses out of order after stall/resume");
        match resp {
            Response::Entries(entries) => assert_eq!(entries.len(), 512),
            other => panic!("scan {id} answered with {other:?}"),
        }
    }
    assert!(
        store.obs().metrics().net_stalls.get() > 0,
        "10 MiB of unread responses must have tripped the high-water stall"
    );

    // The connection must have fully recovered: reads re-armed, new
    // requests still served on the same socket.
    raw.write_all(&protocol::encode_request(SCANS, &Request::Get { key: 1 }))
        .unwrap();
    let (rid, resp) = protocol::read_response(&mut reader).unwrap().unwrap();
    assert_eq!(rid, SCANS);
    assert_eq!(resp, Response::Value(Some([1; 4])));
}

/// Pipelines 20 mixed PUT/GET/DELETE/TRANSACT_KEYS requests on one raw
/// socket and ends the stream right behind them — with a frame whose length
/// word is 2 (shorter than any header) in the same write, or else with a
/// half-close — then asserts the close rule: every one of the 20 requests
/// is answered with the response its opcode calls for, then the server
/// closes the connection and releases all of its state.
fn pipeline_then_end_stream(bad_frame: bool) {
    let (store, server) = serve_mem();
    for k in 0..5u64 {
        store.put(1000 + k, [k; 4]).unwrap();
    }
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    let mut bytes = Vec::new();
    let mut expected = Vec::new();
    for i in 0..20u64 {
        let req = match i % 4 {
            0 => Request::Put {
                key: i,
                value: [i; 4],
            },
            1 => Request::Get { key: 1000 + i % 5 },
            2 => Request::Delete { key: 1000 + i % 5 },
            _ => Request::Transact {
                ops: vec![KeyOp::Put(2000 + i, [i; 4]), KeyOp::Delete(3000 + i)],
            },
        };
        expected.push(req.opcode());
        bytes.extend_from_slice(&protocol::encode_request(i, &req));
    }
    if bad_frame {
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&[0xEE, 0xEE]);
    }
    raw.write_all(&bytes).unwrap();
    if !bad_frame {
        raw.shutdown(std::net::Shutdown::Write).unwrap();
    }

    raw.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    let mut reader = std::io::BufReader::new(raw.try_clone().unwrap());
    let mut answered = [false; 20];
    for _ in 0..20 {
        let (id, resp) = protocol::read_response(&mut reader)
            .unwrap()
            .expect("connection closed before every request read was answered");
        let op = expected[id as usize];
        let ok = match resp {
            Response::Done => op == protocol::opcode::PUT,
            Response::Value(_) => op == protocol::opcode::GET,
            Response::Deleted(_) => op == protocol::opcode::DELETE,
            Response::Applied(2) => op == protocol::opcode::TRANSACT_KEYS,
            _ => false,
        };
        assert!(ok, "request {id} (opcode {op}) answered with {resp:?}");
        assert!(!answered[id as usize], "request {id} answered twice");
        answered[id as usize] = true;
    }
    assert!(
        protocol::read_response(&mut reader).unwrap().is_none(),
        "the server must close the connection after the last answer"
    );
    for i in (0..20u64).step_by(4) {
        assert_eq!(store.get(i).unwrap(), Some([i; 4]));
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while (server.open_connections() > 0 || server.tracked_conns() > 0)
        && std::time::Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.open_connections(), 0);
    assert_eq!(server.tracked_conns(), 0);
}

/// A client that half-closes its socket right after pipelining still gets
/// an answer to every request it sent — acks of writes that settle after
/// the EOF included — and then a clean close.
#[test]
fn half_close_after_pipelining_answers_every_request() {
    pipeline_then_end_stream(false);
}

/// A malformed frame (length word 2) right behind a pipeline ends the
/// stream, but every well-formed request before it is still answered before
/// the server closes the connection.
#[test]
fn bad_frame_after_pipelining_answers_every_request_before_it() {
    pipeline_then_end_stream(true);
}
