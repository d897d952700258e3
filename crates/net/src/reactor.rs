//! The epoll readiness reactor behind [`NetServer`](crate::NetServer): a
//! fixed pool of event-loop threads serving every connection.
//!
//! The accept thread (in [`crate::server`]) hands each accepted socket to
//! one loop. Each loop owns a slab of connection states — an accumulation
//! buffer fed to the incremental frame decoder
//! ([`protocol::decode_request`]), a pending-response write buffer flushed
//! in one coalesced write per readiness cycle, and the per-connection
//! in-flight window — and multiplexes all of them over a single `epoll`
//! instance of nonblocking sockets. Reads (GET/SCAN) are answered inline on
//! the loop thread; writes go to the store's completion front-end with an
//! [`on_settle`] callback, so **no thread ever blocks on a completion**:
//! when the commit group settles, the callback (running on a committer
//! thread) encodes the response, pushes it to the owning loop's inbox, and
//! rings that loop's eventfd to wake its `epoll_wait`. The loop thread takes
//! the write out of the window when it routes the response, so the window
//! is a plain counter owned by that thread.
//!
//! Slab slots are guarded by a per-connection generation counter: a settle
//! message for a connection that died (and whose slot was reused) carries a
//! stale generation and is dropped instead of being written to the wrong
//! peer. Freed slots are only reused while draining the inbox at the top of
//! a cycle, never mid-batch, so a readiness record can never observe a slot
//! that changed hands inside its own `epoll_wait` batch.
//!
//! Slow readers get explicit backpressure: reads bypass admission control,
//! so once a connection's pending-response backlog crosses
//! [`WBUF_HIGH_WATER`] the loop disarms `EPOLLIN` and stops decoding its
//! buffered requests (TCP flow control then pushes back on the client);
//! decoding resumes from the buffered bytes when the backlog drains below
//! [`WBUF_LOW_WATER`].
//!
//! A peer's EOF or a malformed frame ends a connection's read side: the
//! loop disarms `EPOLLIN|EPOLLRDHUP` and decodes nothing past that point,
//! but keeps flushing, and closes the slot only once no write is in flight
//! and every response has left the buffer — every request it read gets its
//! answer. A reset or errored socket (`EPOLLHUP`/`EPOLLERR`) can take no
//! more responses and closes at once; its in-flight writes still settle in
//! the store.
//!
//! [`protocol::decode_request`]: crate::protocol::decode_request
//! [`on_settle`]: rewind_shard::Completion::on_settle

use crate::protocol::{
    decode_request, encode_response, BusyReason, Request, Response, MAX_SCAN_LIMIT,
};
use crate::server::ServerShared;
use parking_lot::Mutex;
use rewind_obs::EventKind;
use rewind_sys as sys;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// epoll cookie reserved for a loop's wakeup eventfd (slots are slab
/// indices, which can never reach this).
const WAKE_TOKEN: u64 = u64::MAX;
/// How much socket data one `read` call may pull into the accumulation
/// buffer before looping for more.
const READ_CHUNK: usize = 16 * 1024;
/// Flushed-prefix size beyond which a partially written response buffer is
/// compacted instead of growing unboundedly behind a slow reader.
const WBUF_COMPACT: usize = 64 * 1024;
/// Pending-response backlog above which a connection is stalled: `EPOLLIN`
/// is disarmed and already-buffered request bytes stay undecoded. Reads
/// (GET/SCAN) are answered inline and bypass admission control, so without
/// this a client that pipelines requests but never drains responses grows
/// `wbuf` without bound.
const WBUF_HIGH_WATER: usize = 256 * 1024;
/// Backlog level at which a stalled connection resumes reading/decoding.
const WBUF_LOW_WATER: usize = 64 * 1024;

// ---------------------------------------------------------------------------
// Safe wrappers over the vendored raw syscall declarations.
// ---------------------------------------------------------------------------

/// An owned epoll instance.
struct Epoll {
    fd: RawFd,
}

impl Epoll {
    fn new() -> io::Result<Epoll> {
        // SAFETY: no pointers; returns an owned fd or -1.
        let fd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        let mut ev = sys::EpollEvent { events, data };
        // SAFETY: `ev` outlives the call; the kernel copies it out.
        let rc = unsafe { sys::epoll_ctl(self.fd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn add(&self, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, events, data)
    }

    fn modify(&self, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, events, data)
    }

    fn wait(&self, events: &mut [sys::EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        loop {
            // SAFETY: `events` is a live mutable slice; the kernel writes at
            // most `events.len()` records.
            let rc = unsafe {
                sys::epoll_wait(
                    self.fd,
                    events.as_mut_ptr(),
                    events.len() as i32,
                    timeout_ms,
                )
            };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: we own this fd and drop it exactly once.
        unsafe { sys::close(self.fd) };
    }
}

/// A nonblocking eventfd used to wake a loop's `epoll_wait` from other
/// threads (committer settle callbacks, the accept thread, shutdown).
struct EventFd {
    fd: RawFd,
}

impl EventFd {
    fn new() -> io::Result<EventFd> {
        // SAFETY: no pointers; returns an owned fd or -1.
        let fd = unsafe { sys::eventfd(0, sys::EFD_NONBLOCK | sys::EFD_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(EventFd { fd })
    }

    /// Bumps the counter so the owning loop's `epoll_wait` returns. A full
    /// counter (`EAGAIN`) already implies the fd is readable, so errors are
    /// deliberately ignored.
    fn ring(&self) {
        let one: u64 = 1;
        // SAFETY: writes exactly 8 bytes from a live stack value.
        let _ = unsafe { sys::write(self.fd, (&one as *const u64).cast(), 8) };
    }

    /// Resets readiness; nonblocking, so an already-empty counter is a
    /// harmless `EAGAIN`.
    fn drain(&self) {
        let mut count: u64 = 0;
        // SAFETY: reads exactly 8 bytes into a live stack value.
        let _ = unsafe { sys::read(self.fd, (&mut count as *mut u64).cast(), 8) };
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        // SAFETY: we own this fd and drop it exactly once.
        unsafe { sys::close(self.fd) };
    }
}

/// Puts `fd` into nonblocking mode via the vendored `fcntl`.
fn set_nonblocking(fd: RawFd) -> io::Result<()> {
    // SAFETY: plain integer fcntl round trip; no pointers.
    unsafe {
        let flags = sys::fcntl(fd, sys::F_GETFL, 0);
        if flags < 0 {
            return Err(io::Error::last_os_error());
        }
        if sys::fcntl(fd, sys::F_SETFL, flags | sys::O_NONBLOCK) < 0 {
            return Err(io::Error::last_os_error());
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Cross-thread plumbing: per-loop inbox + wakeup.
// ---------------------------------------------------------------------------

/// A response whose commit group settled, en route from a committer thread
/// back to the event loop that owns the connection.
struct Settled {
    slot: usize,
    /// Generation the connection had at submit time; a mismatch means the
    /// connection died and the slot was (or may be) reused — drop the frame.
    gen: u64,
    id: u64,
    /// The fully encoded response frame (encoding happens on the committer
    /// thread, off the event loop).
    frame: Vec<u8>,
    t0: Option<Instant>,
}

#[derive(Default)]
struct Inbox {
    new_conns: Vec<(TcpStream, u64)>,
    settled: Vec<Settled>,
}

/// The handle other threads use to hand work to one event loop.
pub(crate) struct LoopShared {
    efd: EventFd,
    inbox: Mutex<Inbox>,
}

impl LoopShared {
    /// Gives an accepted socket to this loop, which adopts it at the top of
    /// its next cycle.
    pub(crate) fn hand_off(&self, sock: TcpStream, conn_id: u64) {
        self.inbox.lock().new_conns.push((sock, conn_id));
        self.efd.ring();
    }

    /// Wakes the loop so it rechecks the server's stop flag.
    pub(crate) fn wake(&self) {
        self.efd.ring();
    }
}

/// Everything an in-flight write needs to settle back to its event loop.
struct SettleCtx {
    lshared: Arc<LoopShared>,
    slot: usize,
    gen: u64,
    id: u64,
    t0: Option<Instant>,
}

impl SettleCtx {
    /// Runs on a committer thread (or inline on the loop thread when the
    /// completion had already settled): encode, enqueue, wake.
    fn deliver(self, resp: &Response) {
        let frame = encode_response(self.id, resp);
        self.lshared.inbox.lock().settled.push(Settled {
            slot: self.slot,
            gen: self.gen,
            id: self.id,
            frame,
            t0: self.t0,
        });
        self.lshared.wake();
    }
}

/// Starts event loop `i` of a server; returns the handle the accept thread
/// and shutdown use to reach it, and its thread.
pub(crate) fn spawn_loop(
    i: usize,
    shared: Arc<ServerShared>,
) -> io::Result<(Arc<LoopShared>, JoinHandle<()>)> {
    let lshared = Arc::new(LoopShared {
        efd: EventFd::new()?,
        inbox: Mutex::new(Inbox::default()),
    });
    let ep = Epoll::new()?;
    ep.add(lshared.efd.fd, sys::EPOLLIN, WAKE_TOKEN)?;
    let cx = LoopCtx {
        shared,
        lshared: Arc::clone(&lshared),
        ep,
    };
    let thread = std::thread::Builder::new()
        .name(format!("net-loop-{i}"))
        .spawn(move || {
            EventLoop {
                cx,
                conns: Vec::new(),
                free: Vec::new(),
                next_gen: 1,
            }
            .run()
        })?;
    Ok((lshared, thread))
}

// ---------------------------------------------------------------------------
// The event loop proper.
// ---------------------------------------------------------------------------

/// What a connection needs from its loop while it reads, dispatches and
/// flushes; kept apart from the slab so a slab entry can be borrowed beside
/// it.
struct LoopCtx {
    shared: Arc<ServerShared>,
    lshared: Arc<LoopShared>,
    ep: Epoll,
}

/// One connection's slab entry.
struct Conn {
    sock: TcpStream,
    id: u64,
    /// Slab index: the connection's epoll cookie and settle address.
    slot: usize,
    gen: u64,
    /// Accumulation buffer for the incremental frame decoder.
    rbuf: Vec<u8>,
    /// Pending response bytes; `wpos` marks the already-flushed prefix.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Submitted writes whose response the loop has not routed yet.
    inflight: usize,
    served: u64,
    /// The epoll interest mask currently armed for this socket.
    armed: u32,
    /// True while the pending-response backlog is over [`WBUF_HIGH_WATER`]:
    /// `EPOLLIN` stays disarmed and `rbuf` bytes stay undecoded until the
    /// peer drains the backlog below [`WBUF_LOW_WATER`].
    stalled: bool,
    /// The read side is over (peer EOF or a framing error): no more bytes
    /// are read, and the connection closes once every request read so far
    /// has been answered and flushed.
    closing: bool,
}

struct EventLoop {
    cx: LoopCtx,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_gen: u64,
}

impl EventLoop {
    fn run(mut self) {
        let mut events = vec![sys::EpollEvent { events: 0, data: 0 }; 256];
        let mut dirty: Vec<usize> = Vec::new();
        loop {
            // Drain the eventfd BEFORE taking the inbox: producers push then
            // ring, so anything pushed after our take leaves the counter
            // nonzero and the next epoll_wait returns immediately — no lost
            // wakeups.
            self.cx.lshared.efd.drain();
            let (new_conns, settled) = {
                let mut ib = self.cx.lshared.inbox.lock();
                (
                    std::mem::take(&mut ib.new_conns),
                    std::mem::take(&mut ib.settled),
                )
            };
            for (sock, conn_id) in new_conns {
                self.adopt(sock, conn_id);
            }
            for s in settled {
                if let Some(slot) = self.route_settled(s) {
                    if !dirty.contains(&slot) {
                        dirty.push(slot);
                    }
                }
            }
            for slot in dirty.drain(..) {
                self.step(slot, |conn, cx| conn.flush(cx));
            }
            if self.cx.shared.stop.load(Ordering::SeqCst) {
                for slot in 0..self.conns.len() {
                    self.close(slot);
                }
                return;
            }
            let n = match self.cx.ep.wait(&mut events, -1) {
                Ok(n) => n,
                Err(_) => continue,
            };
            for ev in &events[..n] {
                // Copy out of the (on x86, packed) record before using the
                // fields.
                let (mask, data) = {
                    let ev = *ev;
                    (ev.events, ev.data)
                };
                if data == WAKE_TOKEN {
                    continue; // inbox handled at the top of the cycle
                }
                self.step(data as usize, |conn, cx| {
                    // A reset or errored socket can take no more responses.
                    // These bits are reported even with no interest armed,
                    // so leaving the slot open would wake the loop forever.
                    mask & (sys::EPOLLERR | sys::EPOLLHUP) == 0
                        && (mask & (sys::EPOLLIN | sys::EPOLLRDHUP) == 0 || conn.read(cx))
                        && conn.flush(cx)
                });
            }
        }
    }

    /// Runs `f` on the live connection in `slot`, if any, and closes it
    /// when `f` reports it finished.
    fn step(&mut self, slot: usize, f: impl FnOnce(&mut Conn, &LoopCtx) -> bool) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if !f(conn, &self.cx) {
            self.close(slot);
        }
    }

    /// Registers a freshly accepted socket into the slab. Slots are reused
    /// only here — at the top of a cycle — so readiness records from the
    /// current batch can never land on a recycled slot.
    fn adopt(&mut self, sock: TcpStream, conn_id: u64) {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        let armed = sys::EPOLLIN | sys::EPOLLRDHUP;
        if set_nonblocking(sock.as_raw_fd()).is_err()
            || self
                .cx
                .ep
                .add(sock.as_raw_fd(), armed, slot as u64)
                .is_err()
        {
            self.free.push(slot);
            self.cx.shared.conn_closed(conn_id, 0);
            return;
        }
        let gen = self.next_gen;
        self.next_gen += 1;
        self.cx.shared.live_conns.fetch_add(1, Ordering::Relaxed);
        self.conns[slot] = Some(Conn {
            sock,
            id: conn_id,
            slot,
            gen,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            inflight: 0,
            served: 0,
            armed,
            stalled: false,
            closing: false,
        });
    }

    /// Takes a settled write out of its connection's window and appends the
    /// response to the write buffer, or drops it if the connection died
    /// (stale generation / freed slot).
    fn route_settled(&mut self, s: Settled) -> Option<usize> {
        let conn = self.conns.get_mut(s.slot)?.as_mut()?;
        if conn.gen != s.gen {
            return None;
        }
        conn.inflight -= 1;
        let obs = self.cx.shared.store.obs();
        let ns = rewind_obs::Obs::elapsed_ns(s.t0);
        if ns != 0 {
            obs.metrics().net_op_ns.record(ns);
        }
        obs.emit(EventKind::NetSettle, s.id, conn.id, ns);
        conn.wbuf.extend_from_slice(&s.frame);
        Some(s.slot)
    }

    /// Tears down one slab entry. Closing the socket drops it from the epoll
    /// interest list; in-flight writes still settle (durability never
    /// depended on the socket), and their responses are dropped by the
    /// generation check in [`route_settled`](Self::route_settled).
    fn close(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].take() else {
            return;
        };
        self.cx.shared.live_conns.fetch_sub(1, Ordering::Relaxed);
        self.cx.shared.conn_closed(conn.id, conn.served);
        self.free.push(slot);
    }
}

impl Conn {
    /// Unflushed response bytes queued behind the peer's reads.
    fn backlog(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Pulls everything the socket has, then decodes and dispatches every
    /// complete frame. EOF ends the read side; returns false only when the
    /// socket failed.
    fn read(&mut self, cx: &LoopCtx) -> bool {
        loop {
            let start = self.rbuf.len();
            self.rbuf.resize(start + READ_CHUNK, 0);
            match (&self.sock).read(&mut self.rbuf[start..]) {
                Ok(0) => {
                    self.rbuf.truncate(start);
                    self.closing = true;
                    break;
                }
                Ok(n) => self.rbuf.truncate(start + n),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.rbuf.truncate(start);
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                    self.rbuf.truncate(start);
                }
                Err(_) => return false,
            }
        }
        self.drain_rbuf(cx);
        true
    }

    /// Decodes and dispatches every complete frame buffered in `rbuf`,
    /// stalling the connection (and leaving the remaining frames buffered)
    /// when the response backlog crosses the high-water mark. A framing
    /// error ends the read side: the bytes from it on are discarded.
    fn drain_rbuf(&mut self, cx: &LoopCtx) {
        let mut pos = 0usize;
        loop {
            if self.backlog() >= WBUF_HIGH_WATER {
                self.stalled = true;
                cx.shared.store.obs().metrics().net_stalls.incr();
                break;
            }
            match decode_request(&self.rbuf[pos..]) {
                Ok(Some((consumed, id, parsed))) => {
                    pos += consumed;
                    self.served += 1;
                    match parsed {
                        Ok(req) => self.dispatch(cx, id, req),
                        Err(op) => {
                            // Well-framed but unknown: answer and keep the
                            // stream.
                            let obs = cx.shared.store.obs();
                            obs.emit(EventKind::NetRecv, id, self.id, op as u64);
                            let resp = Response::Error(format!("unknown opcode {op}"));
                            self.wbuf.extend_from_slice(&encode_response(id, &resp));
                        }
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    self.closing = true;
                    pos = self.rbuf.len();
                    break;
                }
            }
        }
        self.rbuf.drain(..pos);
    }

    /// Executes one decoded request. Reads answer inline; writes go through
    /// [`submit`](Self::submit).
    fn dispatch(&mut self, cx: &LoopCtx, id: u64, req: Request) {
        let store = &cx.shared.store;
        let obs = store.obs();
        let t0 = obs.clock();
        obs.emit(EventKind::NetRecv, id, self.id, req.opcode() as u64);
        let resp = match req {
            Request::Get { key } => match store.get(key) {
                Ok(v) => Response::Value(v),
                Err(e) => Response::Error(e.to_string()),
            },
            Request::Scan { low, high, limit } => {
                match store.scan(low, high, limit.min(MAX_SCAN_LIMIT) as usize) {
                    Ok(entries) => Response::Entries(entries),
                    Err(e) => Response::Error(e.to_string()),
                }
            }
            write => return self.submit(cx, id, t0, write),
        };
        let ns = rewind_obs::Obs::elapsed_ns(t0);
        if ns != 0 {
            obs.metrics().net_op_ns.record(ns);
        }
        obs.emit(EventKind::NetSettle, id, self.id, ns);
        self.wbuf.extend_from_slice(&encode_response(id, &resp));
    }

    /// Admits one write and submits it to the store; its response settles
    /// back through the loop's inbox. A rejected write is answered `BUSY`.
    fn submit(&mut self, cx: &LoopCtx, id: u64, t0: Option<Instant>, req: Request) {
        let store = &cx.shared.store;
        let obs = store.obs();
        if let Some(reason) = cx.shared.admit(self.inflight) {
            obs.metrics().net_busy.incr();
            obs.emit(
                EventKind::NetBusy,
                id,
                self.id,
                matches!(reason, BusyReason::Store) as u64,
            );
            self.wbuf
                .extend_from_slice(&encode_response(id, &Response::Busy(reason)));
            return;
        }
        self.inflight += 1;
        obs.emit(EventKind::NetSubmit, id, self.id, req.opcode() as u64);
        let ctx = SettleCtx {
            lshared: Arc::clone(&cx.lshared),
            slot: self.slot,
            gen: self.gen,
            id,
            t0,
        };
        // The callbacks run on committer threads once the commit group
        // settles (or inline right here if it already has — they only touch
        // the inbox, never the slab).
        match req {
            Request::Put { key, value } => {
                store.submit_put(key, value).on_settle(move |r| {
                    let resp = match r {
                        Ok(_) => Response::Done,
                        Err(e) => Response::Error(e.to_string()),
                    };
                    ctx.deliver(&resp);
                });
            }
            Request::Delete { key } => {
                store.submit_delete(key).on_settle(move |r| {
                    let resp = match r {
                        Ok(present) => Response::Deleted(present),
                        Err(e) => Response::Error(e.to_string()),
                    };
                    ctx.deliver(&resp);
                });
            }
            Request::Transact { ops } => {
                store.submit_apply(ops).on_settle(move |r| {
                    let resp = match r {
                        // Checked, not `as`: a silent truncation here would
                        // ack a huge transaction with a wrong count.
                        Ok(n) => match u32::try_from(n) {
                            Ok(n) => Response::Applied(n),
                            Err(_) => {
                                Response::Error(format!("applied count {n} exceeds wire range"))
                            }
                        },
                        Err(e) => Response::Error(e.to_string()),
                    };
                    ctx.deliver(&resp);
                });
            }
            Request::Get { .. } | Request::Scan { .. } => unreachable!("reads are answered inline"),
        }
    }

    /// One coalesced write of everything pending, then re-arms the interest
    /// mask to match what's left. Returns false when the connection should
    /// close: the socket failed, or its read side is over and every request
    /// read has been answered.
    fn flush(&mut self, cx: &LoopCtx) -> bool {
        while self.wpos < self.wbuf.len() {
            match (&self.sock).write(&self.wbuf[self.wpos..]) {
                Ok(0) => return false,
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        if self.wpos >= self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        } else if self.wpos > WBUF_COMPACT {
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
        if self.stalled && self.backlog() <= WBUF_LOW_WATER {
            // The peer drained the backlog. Resume decoding the request
            // bytes that were left buffered at stall time — the socket may
            // never turn readable again if the peer finished sending, so
            // this is the only path that unsticks them. Decoding may
            // legitimately re-stall the connection.
            self.stalled = false;
            self.drain_rbuf(cx);
        }
        if self.closing && self.inflight == 0 && self.backlog() == 0 {
            return false;
        }
        let mut mask = if self.stalled || self.closing {
            0
        } else {
            sys::EPOLLIN | sys::EPOLLRDHUP
        };
        if self.backlog() > 0 {
            mask |= sys::EPOLLOUT;
        }
        if mask != self.armed {
            if cx
                .ep
                .modify(self.sock.as_raw_fd(), mask, self.slot as u64)
                .is_err()
            {
                return false;
            }
            self.armed = mask;
        }
        true
    }
}
