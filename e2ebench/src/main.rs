//! End-to-end benchmark of the REWIND sharded store.
//!
//! ```text
//! e2ebench --workload <kv_wire|ingest_heap|durable_file> --seed <n> \
//!          --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics; a traced
//! run (`--trace 1`) prints the per-layer ones. Both check the store's
//! outputs and end with one JSON line. `--workload all` runs every
//! workload, each in a process of its own. See `README.md` beside this
//! crate.

mod ingest;
mod layers;
mod report;
mod stats;
mod wire;

use rewind_shard::{ShardedStore, Value};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::time::Instant;

const WORKLOADS: [&str; 3] = ["kv_wire", "ingest_heap", "durable_file"];

const USAGE: &str = "usage: e2ebench --workload <kv_wire|ingest_heap|durable_file|all> \
                     --seed <n> --seconds <s> --trace <0|1> [--smoke]";

/// Bytes a user stores per key: an 8-byte key and a 32-byte value.
pub const USER_BYTES_PER_KEY: u64 = 8 + std::mem::size_of::<Value>() as u64;

const PRELOAD_WINDOW: usize = 1024;
const VALUE_MAGIC: u64 = 0x5245_5749_4E44_4531;

#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny sizes, for the smoke test.
    pub smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, None, None, false);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {v}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(v),
            "--seed" => seed = Some(v.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(v.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds}: expected 0 < s <= 600"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        smoke,
    })
}

/// The value the benchmark writes for `key` at `version`: self-describing,
/// so a read can tell a stale, foreign or torn value from a current one.
pub fn value(key: u64, version: u64) -> Value {
    let mut v = [0u64; std::mem::size_of::<Value>() / 8];
    v[0] = key;
    v[1] = version;
    v[2] = key.rotate_left(29) ^ version.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    v[v.len() - 1] ^= VALUE_MAGIC;
    v
}

/// The version a value written by [`value`] for `key` carries, or `None`
/// when it is not such a value.
pub fn check_value(key: u64, v: &Value) -> Option<u64> {
    (*v == value(key, v[1])).then_some(v[1])
}

/// Writes `items` through the async front-end with a bounded window, so
/// commit groups fill as they do under load.
pub fn preload(store: &ShardedStore, items: impl Iterator<Item = (u64, Value)>) {
    let mut window = VecDeque::new();
    for (k, v) in items {
        window.push_back(store.submit_put(k, v));
        if window.len() >= PRELOAD_WINDOW {
            let c = window.pop_front().expect("window is not empty");
            c.wait().expect("preload put");
        }
    }
    for c in window {
        c.wait().expect("preload put");
    }
}

/// Simulates `rounds` power failures of a heap store, timing each
/// recovery; `check` runs after the first one. Returns seconds per round.
pub fn heap_recover(
    store: &ShardedStore,
    rounds: usize,
    check: impl FnOnce(&ShardedStore),
) -> Vec<f64> {
    let mut check = Some(check);
    let mut times = Vec::new();
    for _ in 0..rounds {
        store.power_cycle();
        let t = Instant::now();
        store.recover().expect("heap store recovers");
        times.push(t.elapsed().as_secs_f64());
        if let Some(c) = check.take() {
            c(store);
        }
    }
    times
}

/// Sleeps until `t` (no spinning); returns at once if `t` has passed.
pub fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Scratch space of the benchmark (pool files, span logs), inside its own
/// directory.
pub fn work_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".work")
}

pub fn write_spans(spans: &stats::Spans, workload: &str) {
    let path = work_dir().join(format!("spans-{workload}.csv"));
    match spans.write(&path) {
        Ok(()) => println!("# {} spans written to {}", spans.len(), path.display()),
        Err(e) => println!("# writing spans to {} failed: {e}", path.display()),
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    // Every store takes its obs switch from REWIND_TRACE when it is built
    // (including the reopen inside `open_file`), so pin it to the run mode
    // before any store or thread exists.
    if args.trace {
        std::env::set_var("REWIND_TRACE", "1");
    } else {
        std::env::remove_var("REWIND_TRACE");
    }
    if args.workload == "all" {
        // A process per workload, so each one's peak RSS is its own.
        let exe = std::env::current_exe().expect("path of this executable");
        for w in WORKLOADS {
            let mut child = std::process::Command::new(&exe);
            child.args(std::env::args().skip(1)).args(["--workload", w]);
            let status = child.status().expect("run a workload");
            if !status.success() {
                std::process::exit(status.code().unwrap_or(1));
            }
        }
        return;
    }
    let mut rep = match args.workload.as_str() {
        "kv_wire" => wire::run(&args),
        "ingest_heap" => ingest::run(&args, false),
        "durable_file" => ingest::run(&args, true),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            std::process::exit(2);
        }
    };
    rep.complete(if args.trace {
        layers::PER_LAYER
    } else {
        layers::END_TO_END
    });
    rep.print(&args.workload, args.seed, args.trace);
}
