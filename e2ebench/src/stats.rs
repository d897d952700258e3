//! Measurement helpers: a seeded generator, windowed latency quantiles,
//! the benchmark's own span log and counter snapshots of the store.

use rewind_nvm::StatsSnapshot;
use rewind_shard::{GroupCommitSnapshot, ShardedStore};
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// SplitMix64: small, seedable, and identical on every platform, so a seed
/// always produces the same schedule.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Exponential gap with mean `mean`.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// Nearest-rank quantile of an ascending slice (0 when empty).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of a set of readings (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Completions per second from per-window counts over windows of length
/// `window`: the median kept window's count, scaled. Like [`Lat`], it
/// shrugs off a stall that hits one window.
pub fn windowed_rate(per_window: &[u64], quiet: &[bool], window: Duration) -> f64 {
    let counts: Vec<f64> = kept(quiet, per_window.len())
        .into_iter()
        .map(|i| per_window[i] as f64)
        .collect();
    median(&counts) / window.as_secs_f64()
}

/// Latency samples in nanoseconds, kept per time window of the phase that
/// produced them. A quantile is taken in every kept window (see
/// [`StealWindows`]) and the median of those is reported: one stalled
/// window then moves the result by one rank instead of dragging the tail.
#[derive(Debug, Clone, Default)]
pub struct Lat {
    windows: Vec<Vec<u64>>,
    quiet: Vec<bool>,
}

impl Lat {
    pub fn new(windows: usize) -> Lat {
        Lat {
            windows: vec![Vec::new(); windows.max(1)],
            quiet: Vec::new(),
        }
    }

    pub fn record(&mut self, window: usize, ns: u64) {
        let last = self.windows.len() - 1;
        self.windows[window.min(last)].push(ns);
    }

    pub fn set_quiet(&mut self, quiet: &[bool]) {
        self.quiet = quiet.to_vec();
    }

    /// Adds the windows of a later round of the same phase.
    pub fn append(&mut self, mut other: Lat) {
        self.quiet.resize(self.windows.len(), true);
        other.quiet.resize(other.windows.len(), true);
        self.windows.append(&mut other.windows);
        self.quiet.append(&mut other.quiet);
    }

    pub fn count(&self) -> usize {
        self.windows.iter().map(Vec::len).sum()
    }

    /// Median over kept windows of each window's `q` quantile, in
    /// microseconds. When too few windows hold ten samples beyond `q`, the
    /// samples are pooled instead.
    pub fn quantile_us(&mut self, q: f64) -> f64 {
        let need = (10.0 / (1.0 - q).max(1e-9)).ceil() as usize;
        for w in &mut self.windows {
            w.sort_unstable();
        }
        let per_window: Vec<f64> = kept(&self.quiet, self.windows.len())
            .into_iter()
            .map(|i| &self.windows[i])
            .filter(|w| w.len() >= need)
            .map(|w| quantile(w, q) as f64 / 1e3)
            .collect();
        if per_window.len() >= 3 {
            return median(&per_window);
        }
        let mut all: Vec<u64> = self.windows.concat();
        all.sort_unstable();
        quantile(&all, q) as f64 / 1e3
    }
}

/// One span of the benchmark's own trace: a call into a layer, timed from
/// the benchmark's side of the boundary.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
}

/// In-memory span log, written out once when the run ends.
#[derive(Debug)]
pub struct Spans {
    t0: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            t0: Instant::now(),
            next_id: 1,
            spans: Vec::new(),
        }
    }

    /// A fresh span id (ids of request spans are allocated here too, so
    /// ids never collide across phases).
    pub fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id - 1
    }

    pub fn push(&mut self, span: Span) {
        self.spans.push(span);
    }

    pub fn extend(&mut self, spans: Vec<Span>) {
        self.spans.extend(spans);
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes `id,parent,name,start_ns,end_ns` lines (times relative to the
    /// log's creation).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id,parent,name,start_ns,end_ns")?;
        let ns = |t: Instant| t.saturating_duration_since(self.t0).as_nanos();
        for s in &self.spans {
            writeln!(
                w,
                "{},{},{},{},{}",
                s.id,
                s.parent,
                s.name,
                ns(s.start),
                ns(s.end)
            )?;
        }
        w.flush()
    }
}

/// Machine-wide CPU ticks `(stolen by the hypervisor, total)` from
/// `/proc/stat`, or `None` where that is not available.
fn host_cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields = stat.lines().next()?.strip_prefix("cpu ")?;
    let v: Vec<u64> = fields
        .split_whitespace()
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    (v.len() == 8).then(|| (v[7], v.iter().sum()))
}

/// Most of the machine's CPU time the hypervisor may take in a window for
/// the window to count as quiet.
const QUIET_STEAL: f64 = 0.05;

/// Samples, at the window boundaries of a phase, how much CPU time the
/// hypervisor stole. On a shared host it at times takes a tenth or more
/// of the CPU for seconds, and every wake-up then waits for the host:
/// latencies and rates measured in such a window are the host's, not the
/// program's. A program change cannot cause steal, so leaving those
/// windows out hides nothing about the program.
#[derive(Debug)]
pub struct StealWindows {
    t0: Instant,
    window: Duration,
    windows: usize,
    ticks: Vec<Option<(u64, u64)>>,
}

impl StealWindows {
    pub fn new(t0: Instant, dur: Duration, windows: usize) -> StealWindows {
        StealWindows {
            t0,
            window: dur / windows as u32,
            windows,
            ticks: vec![host_cpu_ticks()],
        }
    }

    /// Samples once per window boundary that `now` has passed.
    pub fn tick(&mut self, now: Instant) {
        while self.ticks.len() <= self.windows
            && now >= self.t0 + self.window * self.ticks.len() as u32
        {
            self.ticks.push(host_cpu_ticks());
        }
    }

    /// Which windows were quiet; all of them where steal is not reported.
    pub fn quiet(&mut self) -> Vec<bool> {
        while self.ticks.len() <= self.windows {
            self.ticks.push(host_cpu_ticks());
        }
        self.ticks
            .windows(2)
            .map(|w| match (w[0], w[1]) {
                (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                    (s1 - s0) as f64 / ((t1 - t0) as f64) <= QUIET_STEAL
                }
                _ => true,
            })
            .collect()
    }
}

/// Indices of the windows a statistic is taken over: the quiet ones when
/// at least a quarter (and three) are, else all of them.
fn kept(quiet: &[bool], n: usize) -> Vec<usize> {
    let q: Vec<usize> = (0..n)
        .filter(|&i| quiet.get(i).copied().unwrap_or(true))
        .collect();
    if q.len() >= 3 && q.len() * 4 >= n {
        q
    } else {
        (0..n).collect()
    }
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Counters the store exposes, read around a phase and diffed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub group: GroupCommitSnapshot,
    pub nvm: StatsSnapshot,
    pub records: u64,
    pub commits: u64,
    pub rolled_back: u64,
    pub restarts: u64,
    pub serial_fallbacks: u64,
    pub io_ops: u64,
}

impl Counters {
    pub fn read(store: &ShardedStore) -> Counters {
        let s = store.stats();
        let io_ops = (0..store.shard_count())
            .filter_map(|i| store.shard_pool(i).backend_io_ops())
            .sum();
        Counters {
            group: s.group,
            nvm: s.nvm,
            records: s.tm.records_logged,
            commits: s.tm.committed,
            rolled_back: s.tm.rolled_back,
            restarts: s.coord.restarts,
            serial_fallbacks: s.coord.serial_fallbacks,
            io_ops,
        }
    }

    pub fn since(&self, earlier: &Counters) -> Counters {
        let g = &self.group;
        let e = &earlier.group;
        Counters {
            group: GroupCommitSnapshot {
                groups_committed: g.groups_committed - e.groups_committed,
                ops_committed: g.ops_committed - e.ops_committed,
                groups_failed: g.groups_failed - e.groups_failed,
                ..*g
            },
            nvm: self.nvm.since(&earlier.nvm),
            records: self.records - earlier.records,
            commits: self.commits - earlier.commits,
            rolled_back: self.rolled_back - earlier.rolled_back,
            restarts: self.restarts - earlier.restarts,
            serial_fallbacks: self.serial_fallbacks - earlier.serial_fallbacks,
            io_ops: self.io_ops - earlier.io_ops,
        }
    }
}
