//! `kv_wire`: the KV service as its clients see it. An in-process
//! `NetServer` (default reactor) fronts a 2-shard heap store; one loopback
//! connection carries open-loop Poisson traffic, 90 % GET and 10 % PUT over
//! uniform preloaded keys.
//!
//! The generator sleeps to its schedule (it never spins), writes every
//! request already due in one `write`, and a reader thread matches
//! responses by id and times each one from its *due* time, so a stall is
//! charged to every request it delays. The repository's `run_sim` and
//! `PipelinedClient` time from the actual send, merge op types and spin,
//! which on a 2-vCPU box mostly measures the scheduler; they are not used
//! here.

use crate::layers;
use crate::report::Report;
use crate::stats::{median, windowed_rate, Counters, Lat, Rng, Span, Spans, StealWindows};
use crate::{check_value, heap_recover, preload, sleep_until, value, Args, USER_BYTES_PER_KEY};
use rewind_net::protocol::{encode_request, read_response};
use rewind_net::{NetServer, Request, Response, ServerConfig};
use rewind_nvm::CostModel;
use rewind_shard::{ShardConfig, ShardedStore, Value};
use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

const GET_SHARE: f64 = 0.9;
/// Offered rate of the latency phase: about a third of the saturation
/// throughput, so the latencies describe a healthy service.
const NOMINAL_RATE: f64 = 50_000.0;
/// Requests kept outstanding by the saturation phase: deep enough to keep
/// the server busy.
const SATURATION_DEPTH: usize = 128;
/// Per-connection in-flight write window of the server. The default (256)
/// is 50 ms of PUTs at the nominal rate, and a host stall that long made
/// the server refuse PUTs: the one connection here stands for many
/// clients, so it gets their window.
const SERVER_WINDOW: usize = 4096;
/// Share of an untraced run spent saturating; the rest measures latency.
const SATURATION_SHARE: f64 = 0.25;
/// Latency charged to a failed or refused request: it misses every limit.
const FAILED_NS: u64 = u64::MAX / 4;
const WINDOWS: usize = 20;
/// Unmeasured traffic before the first measured phase, so lazy set-up
/// (first touches, connection buffers) is not charged to its first window.
const WARMUP: Duration = Duration::from_millis(500);
/// Quiet windows (see [`StealWindows`]) a measured phase wants: with
/// fewer, the phase runs again on a fresh schedule and its windows are
/// added, up to `MAX_ROUNDS` rounds in all.
const MIN_QUIET: usize = WINDOWS / 2;
const MAX_ROUNDS: u64 = 6;
/// Per-shard pool size. The preload takes ~70 MB of each shard and every
/// overwrite moves the allocator frontier by ~320 B, so this leaves room
/// for all measuring rounds on a machine twice as fast.
const SHARD_CAPACITY: usize = 192 << 20;
/// First ids of wire requests, far above the span ids the phases take.
const FIRST_REQUEST_ID: u64 = 1 << 40;

/// The value versions the model allows a GET to return: per key, the last
/// version whose PUT was acked before the GET was sent (lower bound) and
/// the last version sent before its response arrived (upper bound).
struct Model {
    sent: Vec<AtomicU64>,
    acked: Vec<AtomicU64>,
}

impl Model {
    fn new(keys: u64) -> Model {
        Model {
            sent: (0..keys).map(|_| AtomicU64::new(0)).collect(),
            acked: (0..keys).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn next_version(&self, key: u64) -> u64 {
        self.sent[key as usize].fetch_add(1, Ordering::SeqCst) + 1
    }

    fn acked(&self, key: u64) -> u64 {
        self.acked[key as usize].load(Ordering::SeqCst)
    }

    fn ack(&self, key: u64, version: u64) {
        self.acked[key as usize].fetch_max(version, Ordering::SeqCst);
    }

    /// Whether `v` is a value the key may hold, given that the reader saw
    /// version `lo` acked before asking.
    fn allows(&self, key: u64, lo: u64, v: Option<&Value>) -> bool {
        let hi = self.sent[key as usize].load(Ordering::SeqCst);
        v.and_then(|v| check_value(key, v))
            .is_some_and(|ver| ver >= lo && ver <= hi)
    }
}

#[derive(Debug, Clone, Copy)]
struct Op {
    due_ns: u64,
    key: u64,
    get: bool,
}

/// Poisson arrivals at `rate` per second with a uniform key choice; the
/// same seed always yields the same schedule.
struct Schedule {
    rng: Rng,
    mean_gap_ns: f64,
    t_ns: f64,
    keys: u64,
}

impl Schedule {
    fn new(seed: u64, rate: f64, keys: u64) -> Schedule {
        Schedule {
            rng: Rng::new(seed),
            mean_gap_ns: 1e9 / rate,
            t_ns: 0.0,
            keys,
        }
    }

    fn next_op(&mut self) -> Op {
        self.t_ns += self.rng.exp(self.mean_gap_ns);
        Op {
            due_ns: self.t_ns as u64,
            key: self.rng.below(self.keys),
            get: self.rng.unit() < GET_SHARE,
        }
    }
}

struct Pending {
    id: u64,
    due: Instant,
    due_ns: u64,
    key: u64,
    get: bool,
    /// GET: acked version when sent; PUT: the version written.
    version: u64,
}

/// What one phase measured.
struct PhaseOut {
    get: Lat,
    put: Lat,
    late: Lat,
    attempted: u64,
    busy: u64,
    errors: u64,
    violations: Vec<String>,
    spans: Vec<Span>,
    /// Windows the hypervisor left alone (see [`StealWindows`]).
    quiet: Vec<bool>,
}

impl PhaseOut {
    fn new() -> PhaseOut {
        PhaseOut {
            get: Lat::new(WINDOWS),
            put: Lat::new(WINDOWS),
            late: Lat::new(WINDOWS),
            attempted: 0,
            busy: 0,
            errors: 0,
            violations: Vec::new(),
            spans: Vec::new(),
            quiet: Vec::new(),
        }
    }

    /// Keeps only quiet windows in every latency of the phase.
    fn mask(&mut self, quiet: Vec<bool>) {
        for lat in [&mut self.get, &mut self.put, &mut self.late] {
            lat.set_quiet(&quiet);
        }
        self.quiet = quiet;
    }

    fn quiet_note(&self) -> String {
        let q = self.quiet.iter().filter(|&&q| q).count();
        format!("{q} of {} windows quiet", self.quiet.len())
    }

    fn append(&mut self, other: PhaseOut) {
        self.get.append(other.get);
        self.put.append(other.put);
        self.late.append(other.late);
        self.attempted += other.attempted;
        self.busy += other.busy;
        self.errors += other.errors;
        self.violations.extend(other.violations);
        self.spans.extend(other.spans);
        self.quiet.extend(other.quiet);
    }

    fn charge(&mut self, rep: &mut Report) {
        rep.charge(
            self.attempted,
            self.busy + self.errors,
            std::mem::take(&mut self.violations),
        );
    }
}

/// Runs `phase(round)` until its windows hold [`MIN_QUIET`] quiet ones or
/// [`MAX_ROUNDS`] rounds ran, and merges the rounds.
fn rounds(mut phase: impl FnMut(u64) -> PhaseOut) -> PhaseOut {
    let mut out = phase(0);
    for round in 1..MAX_ROUNDS {
        if out.quiet.iter().filter(|&&q| q).count() >= MIN_QUIET {
            break;
        }
        out.append(phase(round));
    }
    out
}

fn window(due_ns: u64, dur: Duration) -> usize {
    (due_ns as u128 * WINDOWS as u128 / dur.as_nanos().max(1)) as usize
}

/// Drives one open-loop phase over `conn`: this thread generates, a second
/// one reads. `trace` is the parent span id when spans are recorded.
fn wire_phase(
    conn: &TcpStream,
    model: &Model,
    sched: &mut Schedule,
    dur: Duration,
    next_id: &mut u64,
    trace: Option<u64>,
) -> PhaseOut {
    let (tx, rx) = mpsc::channel::<Pending>();
    let reader_conn = conn.try_clone().expect("clone benchmark connection");
    let dur_ns = dur.as_nanos() as u64;
    let t0 = Instant::now() + Duration::from_millis(1);
    std::thread::scope(|s| {
        let reader = s.spawn(|| read_responses(reader_conn, rx, model, dur, trace));
        let mut late = Lat::new(WINDOWS);
        let mut attempted = 0;
        let mut buf = Vec::with_capacity(1 << 14);
        let mut batch: Vec<(u64, Instant)> = Vec::new();
        let mut writer = conn;
        let mut steal = StealWindows::new(t0, dur, WINDOWS);
        let mut op = sched.next_op();
        let base_ns = op.due_ns;
        loop {
            let now = Instant::now();
            while op.due_ns - base_ns < dur_ns {
                let due_ns = op.due_ns - base_ns;
                let due = t0 + Duration::from_nanos(due_ns);
                if due > now {
                    break;
                }
                let (req, version) = if op.get {
                    (Request::Get { key: op.key }, model.acked(op.key))
                } else {
                    let v = model.next_version(op.key);
                    let req = Request::Put {
                        key: op.key,
                        value: value(op.key, v),
                    };
                    (req, v)
                };
                *next_id += 1;
                let id = *next_id;
                tx.send(Pending {
                    id,
                    due,
                    due_ns,
                    key: op.key,
                    get: op.get,
                    version,
                })
                .expect("reader thread alive");
                buf.extend_from_slice(&encode_request(id, &req));
                batch.push((due_ns, due));
                attempted += 1;
                op = sched.next_op();
            }
            if !buf.is_empty() {
                let sent = Instant::now();
                for (due_ns, due) in batch.drain(..) {
                    late.record(window(due_ns, dur), (sent - due).as_nanos() as u64);
                }
                writer.write_all(&buf).expect("benchmark connection write");
                buf.clear();
            }
            steal.tick(Instant::now());
            if op.due_ns - base_ns >= dur_ns {
                break;
            }
            sleep_until(t0 + Duration::from_nanos(op.due_ns - base_ns));
        }
        drop(tx);
        let mut out = reader.join().expect("reader thread");
        out.late = late;
        out.attempted = attempted;
        out.mask(steal.quiet());
        out
    })
}

fn read_responses(
    conn: TcpStream,
    rx: Receiver<Pending>,
    model: &Model,
    dur: Duration,
    trace: Option<u64>,
) -> PhaseOut {
    let mut rd = BufReader::with_capacity(1 << 16, conn);
    let mut pending: HashMap<u64, Pending> = HashMap::new();
    let mut open = true;
    let mut out = PhaseOut::new();
    loop {
        while open {
            match rx.try_recv() {
                Ok(p) => {
                    pending.insert(p.id, p);
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => open = false,
            }
        }
        if pending.is_empty() {
            if !open {
                break;
            }
            match rx.recv() {
                Ok(p) => {
                    pending.insert(p.id, p);
                }
                Err(_) => open = false,
            }
            continue;
        }
        let (id, resp) = match read_response(&mut rd) {
            Ok(Some(r)) => r,
            other => panic!("benchmark connection lost with requests pending: {other:?}"),
        };
        let now = Instant::now();
        // The generator queues each request's record before writing it, so
        // a response's record is either pending already or still queued.
        let p = match pending.remove(&id) {
            Some(p) => p,
            None => loop {
                let p = rx.recv().expect("a response matches a sent request");
                if p.id == id {
                    break p;
                }
                pending.insert(p.id, p);
            },
        };
        let ok = match (&resp, p.get) {
            (Response::Value(v), true) => {
                let ok = model.allows(p.key, p.version, v.as_ref());
                if !ok {
                    out.violations.push(format!(
                        "GET {} returned {v:?}, model allows versions {}..={}",
                        p.key,
                        p.version,
                        model.sent[p.key as usize].load(Ordering::SeqCst)
                    ));
                }
                ok
            }
            (Response::Done, false) => {
                model.ack(p.key, p.version);
                true
            }
            (Response::Busy(_), _) => {
                out.busy += 1;
                false
            }
            _ => {
                out.errors += 1;
                false
            }
        };
        let lat = if ok {
            now.saturating_duration_since(p.due).as_nanos() as u64
        } else {
            FAILED_NS
        };
        let w = window(p.due_ns, dur);
        if p.get {
            out.get.record(w, lat);
        } else {
            out.put.record(w, lat);
        }
        if let Some(parent) = trace {
            out.spans.push(Span {
                id,
                parent,
                name: if p.get { "wire.get" } else { "wire.put" },
                start: p.due,
                end: now,
            });
        }
    }
    out
}

/// What the saturation phase measured.
struct Saturation {
    /// Responses per window; windows of every round, in order.
    done_per_window: Vec<u64>,
    quiet: Vec<bool>,
    done: u64,
    attempted: u64,
    busy: u64,
    errors: u64,
    violations: Vec<String>,
}

impl Saturation {
    fn append(&mut self, other: Saturation) {
        self.done_per_window.extend(other.done_per_window);
        self.quiet.extend(other.quiet);
        self.done += other.done;
        self.attempted += other.attempted;
        self.busy += other.busy;
        self.errors += other.errors;
        self.violations.extend(other.violations);
    }
}

/// The service's capacity: a closed loop that keeps `SATURATION_DEPTH` requests of
/// the same mix outstanding on the connection for `dur`, refilling the
/// window in one write whenever the responses already received are
/// drained. Unlike a ladder of offered rates judged by their tail, this is
/// an average over the whole phase, so a scheduler stall of the shared
/// machine moves it by its length, not by a whole ladder step.
fn saturate(
    conn: &TcpStream,
    model: &Model,
    seed: u64,
    keys: u64,
    dur: Duration,
    next_id: &mut u64,
) -> Saturation {
    let depth = SATURATION_DEPTH;
    let mut rng = Rng::new(seed);
    let mut rd = BufReader::with_capacity(
        1 << 16,
        conn.try_clone().expect("clone benchmark connection"),
    );
    let mut writer = conn;
    let mut pending: HashMap<u64, (bool, u64, u64)> = HashMap::with_capacity(depth);
    let mut buf = Vec::with_capacity(1 << 14);
    let mut out = Saturation {
        done_per_window: vec![0; WINDOWS],
        quiet: Vec::new(),
        done: 0,
        attempted: 0,
        busy: 0,
        errors: 0,
        violations: Vec::new(),
    };
    let mut issue =
        |n: usize, pending: &mut HashMap<u64, (bool, u64, u64)>, out: &mut Saturation| {
            for _ in 0..n {
                let key = rng.below(keys);
                let get = rng.unit() < GET_SHARE;
                *next_id += 1;
                let (req, version) = if get {
                    (Request::Get { key }, model.acked(key))
                } else {
                    let v = model.next_version(key);
                    (
                        Request::Put {
                            key,
                            value: value(key, v),
                        },
                        v,
                    )
                };
                buf.extend_from_slice(&encode_request(*next_id, &req));
                pending.insert(*next_id, (get, key, version));
            }
            out.attempted += n as u64;
            writer.write_all(&buf).expect("benchmark connection write");
            buf.clear();
        };
    let t0 = Instant::now();
    let mut steal = StealWindows::new(t0, dur, WINDOWS);
    issue(depth, &mut pending, &mut out);
    let mut owed = 0;
    while !pending.is_empty() {
        let (id, resp) = match read_response(&mut rd) {
            Ok(Some(r)) => r,
            other => panic!("benchmark connection lost with requests pending: {other:?}"),
        };
        let (get, key, version) = pending
            .remove(&id)
            .expect("a response matches a sent request");
        match (&resp, get) {
            (Response::Value(v), true) => {
                if !model.allows(key, version, v.as_ref()) {
                    out.violations
                        .push(format!("GET {key} returned {v:?} under saturation"));
                }
            }
            (Response::Done, false) => model.ack(key, version),
            (Response::Busy(_), _) => out.busy += 1,
            _ => out.errors += 1,
        }
        let elapsed = t0.elapsed();
        steal.tick(t0 + elapsed);
        if elapsed < dur {
            out.done += 1;
            out.done_per_window[window(elapsed.as_nanos() as u64, dur)] += 1;
            owed += 1;
            if rd.buffer().is_empty() {
                issue(owed, &mut pending, &mut out);
                owed = 0;
            }
        }
    }
    out.quiet = steal.quiet();
    out
}

/// In-process replay of a schedule against the store itself, timed the
/// same way, so the wire's share of the latency is a measured difference.
fn replay(
    store: &ShardedStore,
    model: &Arc<Model>,
    sched: &mut Schedule,
    dur: Duration,
    spans: &mut Spans,
    parent: u64,
) -> PhaseOut {
    let mut out = PhaseOut::new();
    let (tx, rx) = mpsc::channel::<(u64, u64, u64, Instant, Instant, bool)>();
    let dur_ns = dur.as_nanos() as u64;
    let t0 = Instant::now() + Duration::from_millis(1);
    let mut steal = StealWindows::new(t0, dur, WINDOWS);
    let mut op = sched.next_op();
    let base_ns = op.due_ns;
    while op.due_ns - base_ns < dur_ns {
        let due_ns = op.due_ns - base_ns;
        let due = t0 + Duration::from_nanos(due_ns);
        steal.tick(Instant::now());
        sleep_until(due);
        out.attempted += 1;
        let start = Instant::now();
        if op.get {
            let lo = model.acked(op.key);
            let got = store.get(op.key);
            let end = Instant::now();
            let ok = match &got {
                Ok(v) => model.allows(op.key, lo, v.as_ref()),
                Err(_) => false,
            };
            if ok {
                out.get
                    .record(window(due_ns, dur), (end - due).as_nanos() as u64);
            } else {
                out.violations
                    .push(format!("in-process GET {} returned {got:?}", op.key));
                out.get.record(window(due_ns, dur), FAILED_NS);
            }
            let id = spans.id();
            out.spans.push(Span {
                id,
                parent,
                name: "store.get",
                start,
                end,
            });
        } else {
            let v = model.next_version(op.key);
            let tx = tx.clone();
            let key = op.key;
            store.submit_put(key, value(key, v)).on_settle(move |r| {
                let _ = tx.send((key, v, due_ns, start, Instant::now(), r.is_ok()));
            });
        }
        op = sched.next_op();
    }
    drop(tx);
    for (key, v, due_ns, start, end, ok) in rx {
        let due = t0 + Duration::from_nanos(due_ns);
        if ok {
            model.ack(key, v);
            out.put
                .record(window(due_ns, dur), (end - due).as_nanos() as u64);
        } else {
            out.errors += 1;
            out.put.record(window(due_ns, dur), FAILED_NS);
        }
        let id = spans.id();
        out.spans.push(Span {
            id,
            parent,
            name: "store.submit_put",
            start,
            end,
        });
    }
    out.mask(steal.quiet());
    out
}

fn setup(keys: u64) -> (Arc<ShardedStore>, NetServer) {
    let cfg = ShardConfig::new(2)
        .shard_capacity(SHARD_CAPACITY)
        .cost(CostModel::paper());
    let store = Arc::new(ShardedStore::create(cfg).expect("create heap store"));
    store.obs().set_enabled(false);
    preload(&store, (0..keys).map(|k| (k, value(k, 0))));
    let server = NetServer::start(
        Arc::clone(&store),
        ServerConfig::default().max_inflight_per_conn(SERVER_WINDOW),
    )
    .expect("start server");
    (store, server)
}

pub fn run(args: &Args) -> Report {
    let keys: u64 = if args.smoke { 1 << 12 } else { 1 << 18 };
    let nominal = if args.smoke { 5_000.0 } else { NOMINAL_RATE };
    // Untraced: latency at the nominal rate, then capacity. Traced: the
    // nominal schedule untraced, traced, and replayed in-process.
    let (phase, saturation) = if args.trace {
        (Duration::from_secs_f64(args.seconds / 3.0), Duration::ZERO)
    } else {
        let s = Duration::from_secs_f64(args.seconds * SATURATION_SHARE);
        (Duration::from_secs_f64(args.seconds) - s, s)
    };
    let mut rep = Report::default();

    let setups = if args.trace { 1 } else { 3 };
    let mut setup_s = Vec::new();
    let mut kept = None;
    for _ in 0..setups {
        drop(kept.take());
        let t = Instant::now();
        let s = setup(keys);
        setup_s.push(t.elapsed().as_secs_f64());
        kept = Some(s);
    }
    let (store, mut server) = kept.expect("at least one set-up");
    let model = Arc::new(Model::new(keys));
    let conn = TcpStream::connect(server.local_addr()).expect("connect to server");
    conn.set_nodelay(true).expect("TCP_NODELAY");
    let mut next_id = FIRST_REQUEST_ID;
    let mut spans = Spans::new();

    let mut warm_sched = Schedule::new(!args.seed, nominal, keys);
    let mut warm = wire_phase(&conn, &model, &mut warm_sched, WARMUP, &mut next_id, None);
    warm.charge(&mut rep);
    let mut main = rounds(|round| {
        let mut sched = Schedule::new(args.seed.wrapping_add(round), nominal, keys);
        wire_phase(&conn, &model, &mut sched, phase, &mut next_id, None)
    });
    main.charge(&mut rep);

    if !args.trace {
        let mut sat = saturate(&conn, &model, !args.seed, keys, saturation, &mut next_id);
        for round in 1..MAX_ROUNDS {
            if sat.quiet.iter().filter(|&&q| q).count() >= MIN_QUIET {
                break;
            }
            let more = saturate(
                &conn,
                &model,
                !args.seed ^ round,
                keys,
                saturation,
                &mut next_id,
            );
            sat.append(more);
        }
        rep.charge(sat.attempted, sat.busy + sat.errors, sat.violations);
        drop(conn);
        server.shutdown();
        let recovery = recover_and_check(&store, &model, keys, 3, &mut rep);
        rep.metric(
            "setup_s",
            median(&setup_s),
            format!("(median of {setups}: create 2-shard heap store, preload {keys} keys, start server)"),
        );
        let n = format!("at {nominal:.0} req/s offered, {}", main.quiet_note());
        let g = main.get.count();
        let p = main.put.count();
        rep.quantiles(
            &mut main.get,
            &[("get_p50_us", 0.5), ("get_p90_us", 0.9)],
            &format!("({g} GETs {n})"),
        );
        rep.quantiles(
            &mut main.put,
            &[("put_p50_us", 0.5), ("put_p90_us", 0.9)],
            &format!("({p} PUTs {n})"),
        );
        rep.metric(
            "throughput_ops_s",
            windowed_rate(&sat.done_per_window, &sat.quiet, saturation / WINDOWS as u32),
            format!(
                "({} responses, {} of {} windows of {:.3} s quiet, closed loop with {SATURATION_DEPTH} requests outstanding)",
                sat.done,
                sat.quiet.iter().filter(|&&q| q).count(),
                sat.quiet.len(),
                saturation.as_secs_f64() / WINDOWS as f64
            ),
        );
        rep.metric(
            "recovery_s",
            median(&recovery),
            "(median of 3 power-cycle + recover passes)".into(),
        );
        footprint(&store, &mut rep);
        rep.metric("peak_rss_mib", crate::stats::peak_rss_mib(), String::new());
        return rep;
    }

    // Traced run: the same schedule again with obs on, then replayed
    // in-process against the store.
    store.obs().set_enabled(true);
    let root = spans.id();
    let c0 = Counters::read(&store);
    let mut sched = Schedule::new(args.seed, nominal, keys);
    let t = Instant::now();
    let mut traced = wire_phase(&conn, &model, &mut sched, phase, &mut next_id, Some(root));
    spans.push(Span {
        id: root,
        parent: 0,
        name: "phase.wire",
        start: t,
        end: Instant::now(),
    });
    let counters = Counters::read(&store).since(&c0);
    let obs = store.obs().metrics_snapshot();
    spans.extend(std::mem::take(&mut traced.spans));
    traced.charge(&mut rep);

    let root = spans.id();
    let mut sched = Schedule::new(args.seed, nominal, keys);
    let t = Instant::now();
    let mut local = replay(&store, &model, &mut sched, phase, &mut spans, root);
    spans.push(Span {
        id: root,
        parent: 0,
        name: "phase.replay",
        start: t,
        end: Instant::now(),
    });
    spans.extend(std::mem::take(&mut local.spans));
    local.charge(&mut rep);

    let reads_per_get = reads_per_get(&store, keys, args.seed);
    drop(conn);
    server.shutdown();
    let rec0 = store.obs().metrics_snapshot().recovery_ns;
    let root = spans.id();
    let t = Instant::now();
    recover_and_check(&store, &model, keys, 1, &mut rep);
    spans.push(Span {
        id: root,
        parent: 0,
        name: "store.recover",
        start: t,
        end: Instant::now(),
    });
    let rec1 = store.obs().metrics_snapshot().recovery_ns;

    let g = main.get.count();
    rep.metric(
        "wire.get_p99_us",
        main.get.quantile_us(0.99),
        format!("({g} untraced GETs)"),
    );
    let p = main.put.count();
    rep.metric(
        "wire.put_p99_us",
        main.put.quantile_us(0.99),
        format!("({p} untraced PUTs)"),
    );
    let mut late = traced.late;
    let n = late.count();
    rep.quantiles(
        &mut late,
        &[("gen.late_p50_us", 0.5), ("gen.late_p99_us", 0.99)],
        &format!("({n} requests)"),
    );
    for (name, wire, inproc, what) in [
        (
            "net.get_overhead_us",
            &mut traced.get,
            &mut local.get,
            "GET",
        ),
        (
            "net.put_overhead_us",
            &mut traced.put,
            &mut local.put,
            "PUT",
        ),
    ] {
        let (w, l) = (wire.quantile_us(0.5), inproc.quantile_us(0.5));
        rep.metric(
            name,
            w - l,
            format!("(wire {what} p50 {w:.2} - in-process p50 {l:.2})"),
        );
    }
    let n = format!("in-process replay at {nominal:.0}/s");
    let g = local.get.count();
    let p = local.put.count();
    rep.quantiles(
        &mut local.get,
        &[("shard.get_p50_us", 0.5), ("shard.get_p99_us", 0.99)],
        &format!("({g} gets, {n})"),
    );
    rep.quantiles(
        &mut local.put,
        &[("shard.ack_p50_us", 0.5), ("shard.ack_p99_us", 0.99)],
        &format!("({p} puts, {n})"),
    );
    layers::counters(&mut rep, &counters, traced.attempted, "wire requests");
    layers::obs(&mut rep, &obs);
    layers::recovery_us(&mut rep, &rec0, &rec1);
    rep.metric("pds.reads_per_get", reads_per_get.0, reads_per_get.1);
    let (traced_p50, plain_p50) = (traced.get.quantile_us(0.5), main.get.quantile_us(0.5));
    rep.metric(
        "obs.overhead_frac",
        traced_p50 / plain_p50 - 1.0,
        format!("(traced wire GET p50 {traced_p50:.2} / untraced {plain_p50:.2}, same schedule)"),
    );
    crate::write_spans(&spans, "kv_wire");
    rep
}

/// Pool reads per in-process `get`, over a quiet store.
fn reads_per_get(store: &ShardedStore, keys: u64, seed: u64) -> (f64, String) {
    let n = 20_000u64;
    let mut rng = Rng::new(seed ^ 0xDEAD_BEEF);
    let before = store.stats().nvm.reads;
    for _ in 0..n {
        std::hint::black_box(store.get(rng.below(keys)).expect("probe get"));
    }
    let reads = store.stats().nvm.reads - before;
    (
        reads as f64 / n as f64,
        format!("({reads} pool reads / {n} gets)"),
    )
}

/// Power-cycles and recovers the store `rounds` times; after the first
/// recovery, every key must hold a version the model allows (acked writes
/// survive). Returns each recovery's wall time in seconds.
fn recover_and_check(
    store: &ShardedStore,
    model: &Model,
    keys: u64,
    rounds: usize,
    rep: &mut Report,
) -> Vec<f64> {
    heap_recover(store, rounds, |store| {
        for k in 0..keys {
            let got = store.get(k);
            let ok = matches!(&got, Ok(v) if model.allows(k, model.acked(k), v.as_ref()));
            if !ok {
                rep.violation(format!(
                    "after recovery key {k} holds {got:?}, acked version {}",
                    model.acked(k)
                ));
            }
        }
    })
}

/// Pool bytes the allocator has handed out per user byte stored.
pub fn footprint(store: &ShardedStore, rep: &mut Report) {
    let s = store.stats();
    let user = s.entries * USER_BYTES_PER_KEY;
    rep.metric(
        "bytes_per_user_byte",
        s.alloc.frontier as f64 / user.max(1) as f64,
        format!(
            "({} allocator frontier bytes / ({} keys x {USER_BYTES_PER_KEY} B))",
            s.alloc.frontier, s.entries
        ),
    );
}
