//! `ingest_heap` and `durable_file`: the store as an in-process library.
//! One submitter thread drives the mix, 95 % `submit_put` of fresh keys and
//! 5 % two-account transfers through `submit_transact_keys` over a
//! preloaded table of accounts: first open-loop at a fixed rate (put
//! latency, timed from the due time), then keeping 256 completions
//! outstanding (throughput).
//!
//! The two workloads differ only in the pools: heap pools with the paper's
//! busy-wait NVM emulation, or `create_file` pools where every fence is a
//! write-back plus `fsync`. The same op mix on both shows a commit-path
//! change that trades CPU for I/O, or I/O for CPU, on one of them.

use crate::layers;
use crate::report::Report;
use crate::stats::{median, windowed_rate, Counters, Lat, Rng, Span, Spans, StealWindows};
use crate::{
    check_value, heap_recover, preload, sleep_until, value, work_dir, Args, USER_BYTES_PER_KEY,
};
use rewind_nvm::CostModel;
use rewind_shard::{RewindError, ShardConfig, ShardedStore};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

const ACCOUNTS: u64 = 1 << 14;
const INITIAL_BALANCE: u64 = 1_000_000;
const WINDOW: usize = 256;
/// Offered rates of the latency phase, about 40 % of the heap and the file
/// store's capacity, so put latency describes a store that keeps up
/// rather than the queue in front of a saturated one.
const HEAP_LATENCY_RATE: f64 = 30_000.0;
const FILE_LATENCY_RATE: f64 = 800.0;
const TRANSFER_SHARE: f64 = 0.05;
/// Fresh keys start here, far above the account keys.
const FRESH_BASE: u64 = 1 << 40;
/// Version every fresh put writes (each fresh key is written once).
const FRESH_VERSION: u64 = 1;
const WINDOWS: usize = 10;
/// Heap pool size per shard: a base for the accounts, the log and the
/// tree, plus room for the fresh puts of each second of the run. Each
/// fresh put costs about 340 pool bytes in its shard, so 24 MiB per second
/// holds some 145k puts/s across both shards, twice the measured
/// rate. Heap pools hold two full images in RAM, so this is not padded
/// further; running out fails the run (the puts error).
const HEAP_SHARD_BASE: usize = 64 << 20;
const HEAP_SHARD_PER_SECOND: usize = 24 << 20;
/// File pool size per shard; at a few thousand fsync-bound puts a second,
/// a run fills a small part of it.
const FILE_SHARD_CAPACITY: usize = 128 << 20;
const RECOVERY_ROUNDS: usize = 3;
const GET_BATCH: usize = 16;

enum Kind {
    Put(u64),
    Transfer,
}

struct Settled {
    kind: Kind,
    start: Instant,
    end: Instant,
    ok: bool,
}

/// What one ingest phase measured.
struct IngestOut {
    put: Lat,
    xfer: Lat,
    acked: Vec<u64>,
    transfers_ok: u64,
    attempted: u64,
    errors: u64,
    /// Successful settles per window of the submission phase.
    done_per_window: Vec<u64>,
    /// Windows the hypervisor left alone (see [`StealWindows`]).
    quiet: Vec<bool>,
    dur: Duration,
}

impl IngestOut {
    fn ops_per_s(&self) -> f64 {
        windowed_rate(
            &self.done_per_window,
            &self.quiet,
            self.dur / WINDOWS as u32,
        )
    }

    fn quiet_note(&self) -> String {
        let q = self.quiet.iter().filter(|&&q| q).count();
        format!("{q} of {WINDOWS} windows quiet")
    }
}

/// Submits a put of a fresh key; its settle reports latency from `start`.
fn submit_put(store: &ShardedStore, key: u64, start: Instant, tx: &Sender<Settled>) {
    let tx = tx.clone();
    store
        .submit_put(key, value(key, FRESH_VERSION))
        .on_settle(move |r| {
            let _ = tx.send(Settled {
                kind: Kind::Put(key),
                start,
                end: Instant::now(),
                ok: r.is_ok(),
            });
        });
}

/// Submits a transfer of `amount` from account `a` to `b`; its settle
/// reports latency from `start`.
fn submit_transfer(
    store: &Arc<ShardedStore>,
    (a, b, amount): (u64, u64, u64),
    start: Instant,
    tx: &Sender<Settled>,
) {
    let tx = tx.clone();
    store
        .submit_transact_keys(vec![a, b], move |t| {
            let (va, vb) = (t.get(a)?, t.get(b)?);
            let balance = |k, v: Option<_>| {
                v.as_ref()
                    .and_then(|v| check_value(k, v))
                    .ok_or_else(|| RewindError::Aborted(format!("account {k} holds {v:?}")))
            };
            let (ba, bb) = (balance(a, va)?, balance(b, vb)?);
            if ba < amount {
                return Ok(false);
            }
            t.put(a, value(a, ba - amount))?;
            t.put(b, value(b, bb + amount))?;
            Ok(true)
        })
        .on_settle(move |r| {
            let _ = tx.send(Settled {
                kind: Kind::Transfer,
                start,
                end: Instant::now(),
                ok: r.is_ok(),
            });
        });
}

fn settle(
    out: &mut IngestOut,
    s: Settled,
    t0: Instant,
    dur: Duration,
    trace: Option<u64>,
    spans: &mut Spans,
) {
    let w = (s.start.saturating_duration_since(t0).as_nanos() * WINDOWS as u128
        / dur.as_nanos().max(1)) as usize;
    let ns = (s.end - s.start).as_nanos() as u64;
    let name = match (s.kind, s.ok) {
        (Kind::Put(key), true) => {
            out.put.record(w, ns);
            out.acked.push(key);
            "store.submit_put"
        }
        (Kind::Transfer, true) => {
            out.xfer.record(w, ns);
            out.transfers_ok += 1;
            "store.submit_transact_keys"
        }
        (_, false) => {
            out.errors += 1;
            "store.failed"
        }
    };
    let done = s.end.saturating_duration_since(t0);
    if s.ok && done < dur {
        out.done_per_window[(done.as_nanos() * WINDOWS as u128 / dur.as_nanos()) as usize] += 1;
    }
    if let Some(parent) = trace {
        let id = spans.id();
        spans.push(Span {
            id,
            parent,
            name,
            start: s.start,
            end: s.end,
        });
    }
}

/// The op mix: puts of fresh keys and transfers between random accounts.
struct Mix {
    rng: Rng,
    accounts: u64,
    next_key: u64,
}

/// How a phase paces its submissions.
#[derive(Debug, Clone, Copy)]
enum Pace {
    /// Closed loop: keep this many ops outstanding.
    Window(usize),
    /// Open loop: Poisson arrivals at this many ops per second, each timed
    /// from its due time.
    Rate(f64),
}

/// Runs the op mix for `dur`, then waits for every op to settle.
fn ingest_phase(
    store: &Arc<ShardedStore>,
    mix: &mut Mix,
    pace: Pace,
    dur: Duration,
    trace: Option<u64>,
    spans: &mut Spans,
) -> IngestOut {
    let mut out = IngestOut {
        put: Lat::new(WINDOWS),
        xfer: Lat::new(WINDOWS),
        acked: Vec::new(),
        transfers_ok: 0,
        attempted: 0,
        errors: 0,
        done_per_window: vec![0; WINDOWS],
        quiet: Vec::new(),
        dur,
    };
    let (tx, rx): (Sender<Settled>, Receiver<Settled>) = mpsc::channel();
    let t0 = Instant::now();
    let mut steal = StealWindows::new(t0, dur, WINDOWS);
    let mut inflight = 0usize;
    let mut due_ns = 0.0;
    loop {
        let now = Instant::now();
        steal.tick(now);
        let start = match pace {
            Pace::Window(window) => {
                if now >= t0 + dur {
                    break;
                }
                while inflight >= window {
                    let s = rx.recv().expect("settles arrive while ops are in flight");
                    settle(&mut out, s, t0, dur, trace, spans);
                    inflight -= 1;
                }
                Instant::now()
            }
            Pace::Rate(rate) => {
                due_ns += mix.rng.exp(1e9 / rate);
                let due = t0 + Duration::from_nanos(due_ns as u64);
                if due >= t0 + dur {
                    break;
                }
                sleep_until(due);
                while let Ok(s) = rx.try_recv() {
                    settle(&mut out, s, t0, dur, trace, spans);
                    inflight -= 1;
                }
                due
            }
        };
        if mix.rng.unit() < TRANSFER_SHARE {
            let n = mix.accounts;
            let a = mix.rng.below(n);
            let b = (a + 1 + mix.rng.below(n - 1)) % n;
            submit_transfer(store, (a, b, 1 + mix.rng.below(100)), start, &tx);
        } else {
            submit_put(store, mix.next_key, start, &tx);
            mix.next_key += 1;
        }
        inflight += 1;
        out.attempted += 1;
    }
    for _ in 0..inflight {
        let s = rx.recv().expect("every submitted op settles");
        settle(&mut out, s, t0, dur, trace, spans);
    }
    out.quiet = steal.quiet();
    out.put.set_quiet(&out.quiet);
    out.xfer.set_quiet(&out.quiet);
    out
}

/// The output checks: balances conserved, every acked put readable with
/// its value. The gets are timed in batches of `GET_BATCH`: a lone
/// sub-microsecond get is too close to the clock's own cost to time.
struct Checked {
    get: Lat,
    gets: u64,
    reads: u64,
}

fn check(store: &ShardedStore, accounts: u64, acked: &[u64], rep: &mut Report) -> Checked {
    let reads0 = store.stats().nvm.reads;
    let keys: Vec<u64> = (0..accounts).chain(acked.iter().copied()).collect();
    let batches = keys.len().div_ceil(GET_BATCH);
    let mut get = Lat::new(WINDOWS);
    let mut got = Vec::with_capacity(GET_BATCH);
    let mut sum: u128 = 0;
    for (b, chunk) in keys.chunks(GET_BATCH).enumerate() {
        let t = Instant::now();
        got.extend(chunk.iter().map(|&k| store.get(k)));
        get.record(
            b * WINDOWS / batches,
            t.elapsed().as_nanos() as u64 / chunk.len() as u64,
        );
        for (&k, r) in chunk.iter().zip(got.drain(..)) {
            let version = r
                .as_ref()
                .ok()
                .and_then(|v| v.as_ref())
                .and_then(|v| check_value(k, v));
            match version {
                Some(balance) if k < accounts => sum += balance as u128,
                Some(FRESH_VERSION) => {}
                _ => rep.violation(format!("key {k} reads {r:?}")),
            }
        }
    }
    let expected = accounts as u128 * INITIAL_BALANCE as u128;
    if sum != expected {
        rep.violation(format!("balances sum to {sum}, expected {expected}"));
    }
    Checked {
        get,
        gets: keys.len() as u64,
        reads: store.stats().nvm.reads - reads0,
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

struct Recovered {
    store: Arc<ShardedStore>,
    seconds: Vec<f64>,
    checked: Checked,
}

/// Crashes the store and recovers it `rounds` times, checking outputs
/// after the first recovery. A heap store is power-cycled in place; a file
/// store is dropped without shutdown and reopened from its files.
fn crash_and_recover(
    store: Arc<ShardedStore>,
    file: Option<(&ShardConfig, &Path)>,
    rounds: usize,
    accounts: u64,
    acked: &[u64],
    rep: &mut Report,
) -> Recovered {
    let mut checked = None;
    let Some((cfg, dir)) = file else {
        let seconds = heap_recover(&store, rounds, |s| {
            checked = Some(check(s, accounts, acked, rep))
        });
        let checked = checked.expect("checked after the first recovery");
        return Recovered {
            store,
            seconds,
            checked,
        };
    };
    drop(store);
    let mut seconds = Vec::new();
    loop {
        let t = Instant::now();
        let s = ShardedStore::open_file(*cfg, dir).expect("reopen file store");
        seconds.push(t.elapsed().as_secs_f64());
        if checked.is_none() {
            checked = Some(check(&s, accounts, acked, rep));
        }
        if seconds.len() == rounds {
            return Recovered {
                store: Arc::new(s),
                seconds,
                checked: checked.expect("checked after the first reopen"),
            };
        }
        drop(s);
    }
}

pub fn run(args: &Args, file: bool) -> Report {
    let accounts = if args.smoke { 1 << 8 } else { ACCOUNTS };
    let cfg = ShardConfig::new(2)
        .shard_capacity(if file {
            FILE_SHARD_CAPACITY
        } else {
            HEAP_SHARD_BASE + HEAP_SHARD_PER_SECOND * args.seconds.ceil() as usize
        })
        .cost(CostModel::paper().with_emulation(true));
    let root: PathBuf = work_dir().join(format!("pools-{}", std::process::id()));
    let mut rep = Report::default();

    let setups = if args.trace { 1 } else { 3 };
    let mut setup_s = Vec::new();
    let mut kept: Option<(Arc<ShardedStore>, PathBuf)> = None;
    for i in 0..setups {
        if let Some((s, dir)) = kept.take() {
            drop(s);
            let _ = std::fs::remove_dir_all(dir);
        }
        let dir = root.join(format!("setup-{i}"));
        let t = Instant::now();
        let store = if file {
            ShardedStore::create_file(cfg, &dir).expect("create file store")
        } else {
            ShardedStore::create(cfg).expect("create heap store")
        };
        store.obs().set_enabled(false);
        preload(
            &store,
            (0..accounts).map(|a| (a, value(a, INITIAL_BALANCE))),
        );
        setup_s.push(t.elapsed().as_secs_f64());
        kept = Some((Arc::new(store), dir));
    }
    let (store, dir) = kept.expect("at least one set-up");
    let file_at = file.then_some((&cfg, dir.as_path()));
    let mut mix = Mix {
        rng: Rng::new(args.seed),
        accounts,
        next_key: FRESH_BASE,
    };
    let what = if file { "2-shard file" } else { "2-shard heap" };

    // Untraced: put latency at a fixed offered rate, then throughput with
    // a full window. Traced: the windowed phase untraced, then traced.
    let half = Duration::from_secs_f64(args.seconds / 2.0);
    let mut phase = |pace, trace, spans: &mut Spans| {
        let out = ingest_phase(&store, &mut mix, pace, half, trace, spans);
        rep.charge(out.attempted, out.errors, Vec::new());
        out
    };

    if !args.trace {
        let rate = match (file, args.smoke) {
            (false, false) => HEAP_LATENCY_RATE,
            (true, false) => FILE_LATENCY_RATE,
            (_, true) => 200.0,
        };
        let mut lat = phase(Pace::Rate(rate), None, &mut Spans::new());
        let out = phase(Pace::Window(WINDOW), None, &mut Spans::new());
        let acked = [lat.acked.as_slice(), &out.acked].concat();
        let mut r = crash_and_recover(store, file_at, RECOVERY_ROUNDS, accounts, &acked, &mut rep);
        rep.metric(
            "setup_s",
            median(&setup_s),
            format!("(median of {setups}: create {what} store, preload {accounts} accounts)"),
        );
        let g = r.checked.gets;
        rep.quantiles(
            &mut r.checked.get,
            &[("get_p50_us", 0.5), ("get_p90_us", 0.9)],
            &format!("({g} gets after recovery, timed in batches of {GET_BATCH})"),
        );
        let p = lat.put.count();
        let n = format!(
            "{rate:.0} ops/s offered, from due time, {}",
            lat.quiet_note()
        );
        rep.quantiles(
            &mut lat.put,
            &[("put_p50_us", 0.5), ("put_p90_us", 0.9)],
            &format!("({p} puts, {n})"),
        );
        rep.metric(
            "throughput_ops_s",
            out.ops_per_s(),
            format!(
                "({} acked puts + {} transfers, window {WINDOW}, {})",
                out.acked.len(),
                out.transfers_ok,
                out.quiet_note()
            ),
        );
        rep.metric(
            "recovery_s",
            median(&r.seconds),
            format!(
                "(median of {RECOVERY_ROUNDS} {})",
                if file {
                    "dirty drops + open_file"
                } else {
                    "power cycles + recover"
                }
            ),
        );
        footprint(&r.store, file.then_some(dir.as_path()), &mut rep);
        rep.metric("peak_rss_mib", crate::stats::peak_rss_mib(), String::new());
        drop(r);
        let _ = std::fs::remove_dir_all(&root);
        return rep;
    }

    // The untraced half is the overhead base; the traced half's counters
    // and obs histograms give the layer metrics.
    let plain = phase(Pace::Window(WINDOW), None, &mut Spans::new());
    store.obs().set_enabled(true);
    let mut spans = Spans::new();
    let parent = spans.id();
    let c0 = Counters::read(&store);
    let t = Instant::now();
    let mut traced = phase(Pace::Window(WINDOW), Some(parent), &mut spans);
    spans.push(Span {
        id: parent,
        parent: 0,
        name: "phase.ingest",
        start: t,
        end: Instant::now(),
    });
    let counters = Counters::read(&store).since(&c0);
    let obs = store.obs().metrics_snapshot();
    let mut acked = plain.acked.clone();
    acked.extend_from_slice(&traced.acked);

    let rec0 = store.obs().metrics_snapshot().recovery_ns;
    let id = spans.id();
    let t = Instant::now();
    let mut r = crash_and_recover(store, file_at, 1, accounts, &acked, &mut rep);
    spans.push(Span {
        id,
        parent: 0,
        name: if file {
            "store.open_file"
        } else {
            "store.recover"
        },
        start: t,
        end: Instant::now(),
    });
    let rec1 = r.store.obs().metrics_snapshot().recovery_ns;
    // A reopened file store starts a fresh obs handle.
    let rec0 = if file { Default::default() } else { rec0 };

    let p = traced.put.count();
    rep.quantiles(
        &mut traced.put,
        &[("shard.ack_p50_us", 0.5), ("shard.ack_p99_us", 0.99)],
        &format!("({p} puts)"),
    );
    let x = traced.xfer.count();
    rep.quantiles(
        &mut traced.xfer,
        &[("shard.xfer_p50_us", 0.5), ("shard.xfer_p99_us", 0.99)],
        &format!("({x} transfers)"),
    );
    let g = r.checked.gets;
    rep.quantiles(
        &mut r.checked.get,
        &[("shard.get_p50_us", 0.5), ("shard.get_p99_us", 0.99)],
        &format!("({g} gets after recovery, timed in batches of {GET_BATCH})"),
    );
    rep.metric(
        "pds.reads_per_get",
        r.checked.reads as f64 / g.max(1) as f64,
        format!("({} pool reads / {g} gets)", r.checked.reads),
    );
    layers::counters(&mut rep, &counters, traced.attempted, "ops");
    layers::obs(&mut rep, &obs);
    layers::recovery_us(&mut rep, &rec0, &rec1);
    if file {
        let mib = dir_bytes(&dir) as f64 / (1 << 20) as f64;
        let secs = r.seconds[0];
        rep.metric("nvm.file_mib", mib, "(pool files after the run)".into());
        rep.metric(
            "nvm.reopen_mib_per_s",
            mib / secs,
            format!("({mib:.1} MiB / {secs:.3} s open_file)"),
        );
    }
    let (traced_ops, plain_ops) = (traced.ops_per_s(), plain.ops_per_s());
    rep.metric(
        "obs.overhead_frac",
        plain_ops / traced_ops - 1.0,
        format!("(untraced {plain_ops:.0} ops/s / traced {traced_ops:.0} ops/s)"),
    );
    drop(r);
    crate::write_spans(&spans, &args.workload);
    let _ = std::fs::remove_dir_all(&root);
    rep
}

/// Pool bytes per user byte: file sizes for a file store, the allocator's
/// frontier for a heap store.
fn footprint(store: &ShardedStore, dir: Option<&Path>, rep: &mut Report) {
    let Some(dir) = dir else {
        return crate::wire::footprint(store, rep);
    };
    let entries = store.stats().entries;
    let bytes = dir_bytes(dir);
    rep.metric(
        "bytes_per_user_byte",
        bytes as f64 / (entries * USER_BYTES_PER_KEY).max(1) as f64,
        format!("({bytes} pool-file bytes / ({entries} keys x {USER_BYTES_PER_KEY} B))"),
    );
}
