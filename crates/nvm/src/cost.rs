//! NVM latency accounting.
//!
//! The paper emulates NVM by charging a 150 ns (510-cycle) latency per NVM
//! write, with consecutive writes to the same cacheline coalesced into a
//! single NVM write, plus the latency of cacheline flushes and memory fences.
//! Section 5.2 additionally sweeps the memory fence latency from 0 to 5 µs to
//! study fence sensitivity (Figure 10).
//!
//! [`CostModel`] captures those parameters; [`NvmStats`] accumulates the event
//! counts and the resulting simulated nanoseconds. The benchmark harness
//! reports simulated time (deterministic, machine independent) alongside wall
//! clock. When [`CostModel::emulate_latency`] is set the pool also busy-waits
//! for the configured duration on each charged event so that wall-clock
//! measurements include the latency, exactly like the paper's busy loop.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Latency parameters of the simulated NVM device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Latency charged per NVM write (per dirty cacheline reaching NVM).
    /// The paper uses 150 ns (510 cycles at 2.5 GHz).
    pub write_latency_ns: u64,
    /// Latency charged per persistent memory fence. The paper's default
    /// hardware fence is cheap (on the order of 100 ns); Figure 10 sweeps this
    /// value up to 5 µs.
    pub fence_latency_ns: u64,
    /// Latency charged per explicit cacheline flush instruction, excluding the
    /// NVM write it triggers (which is charged separately).
    pub flush_latency_ns: u64,
    /// NVM read latency. The paper does not model an elevated read latency
    /// (reads are comparable to DRAM for current NVM technologies), so the
    /// default is zero, but the knob exists for sensitivity studies.
    pub read_latency_ns: u64,
    /// If `true`, the pool busy-waits for each charged latency so wall-clock
    /// measurements include it (the paper's emulation strategy). If `false`,
    /// latency is only accounted in [`NvmStats`].
    pub emulate_latency: bool,
    /// If `true` (and `emulate_latency` is on), latencies of at least
    /// [`SLEEP_EMULATION_FLOOR_NS`] park the thread (`thread::sleep`)
    /// instead of spinning. Sleeping waiters overlap even when the machine
    /// has fewer hardware threads than workers, which is what lets
    /// wall-clock concurrency measurements (e.g. the disjoint-coordinator
    /// sweep of the `cross_shard` bench) observe genuine protocol overlap
    /// rather than core-count artifacts. Latencies below the floor still
    /// spin — `thread::sleep` cannot hit sub-10 µs targets accurately.
    pub sleep_emulation: bool,
}

/// Minimum latency the sleep-emulation mode parks the thread for; shorter
/// waits spin (see [`CostModel::sleep_emulation`]).
pub const SLEEP_EMULATION_FLOOR_NS: u64 = 10_000;

impl CostModel {
    /// The paper's configuration: 150 ns writes, 100 ns fences, no read
    /// penalty, accounting only (no busy-wait).
    pub const fn paper() -> Self {
        CostModel {
            write_latency_ns: 150,
            fence_latency_ns: 100,
            flush_latency_ns: 40,
            read_latency_ns: 0,
            emulate_latency: false,
            sleep_emulation: false,
        }
    }

    /// A zero-cost model (useful for pure correctness tests).
    pub const fn free() -> Self {
        CostModel {
            write_latency_ns: 0,
            fence_latency_ns: 0,
            flush_latency_ns: 0,
            read_latency_ns: 0,
            emulate_latency: false,
            sleep_emulation: false,
        }
    }

    /// Returns a copy with a different fence latency (Figure 10 sweeps this).
    pub const fn with_fence_latency_ns(mut self, ns: u64) -> Self {
        self.fence_latency_ns = ns;
        self
    }

    /// Returns a copy with a different write latency.
    pub const fn with_write_latency_ns(mut self, ns: u64) -> Self {
        self.write_latency_ns = ns;
        self
    }

    /// Returns a copy with busy-wait emulation switched on or off.
    pub const fn with_emulation(mut self, emulate: bool) -> Self {
        self.emulate_latency = emulate;
        self
    }

    /// Returns a copy with sleep-based emulation switched on (implies
    /// emulation): charged latencies of at least
    /// [`SLEEP_EMULATION_FLOOR_NS`] park the thread so concurrent waiters
    /// overlap regardless of the machine's core count.
    pub const fn with_sleep_emulation(mut self) -> Self {
        self.emulate_latency = true;
        self.sleep_emulation = true;
        self
    }

    /// Emulates `ns` nanoseconds of device latency according to this model:
    /// a no-op unless [`CostModel::emulate_latency`] is set; a spin loop by
    /// default; with [`CostModel::sleep_emulation`], waits of at least
    /// [`SLEEP_EMULATION_FLOOR_NS`] park the thread instead.
    #[inline]
    pub fn emulate_wait(&self, ns: u64) {
        if !self.emulate_latency || ns == 0 {
            return;
        }
        if self.sleep_emulation && ns >= SLEEP_EMULATION_FLOOR_NS {
            std::thread::sleep(Duration::from_nanos(ns));
        } else {
            busy_wait_ns(ns);
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::paper()
    }
}

/// Event counters and simulated-time accumulator for one [`NvmPool`].
///
/// All counters are monotonically increasing atomics; [`NvmStats::snapshot`]
/// takes a consistent-enough point-in-time copy and two snapshots can be
/// subtracted to measure an interval.
///
/// [`NvmPool`]: crate::NvmPool
#[derive(Debug, Default)]
pub struct NvmStats {
    /// NVM writes actually charged (dirty cachelines reaching NVM, with
    /// consecutive same-line writes coalesced).
    nvm_writes: AtomicU64,
    /// Volatile stores issued (before coalescing / flushing).
    stores: AtomicU64,
    /// Non-temporal stores issued.
    nt_stores: AtomicU64,
    /// Cacheline flush instructions issued.
    flushes: AtomicU64,
    /// Persistent memory fences issued.
    fences: AtomicU64,
    /// Reads issued.
    reads: AtomicU64,
    /// Allocations served.
    allocs: AtomicU64,
    /// Frees accepted.
    frees: AtomicU64,
    /// Simulated power failures.
    power_cycles: AtomicU64,
    /// Simulated nanoseconds accumulated from the cost model.
    sim_ns: AtomicU64,
    /// Nanoseconds actually waited out under latency emulation (spin or
    /// sleep). Zero when [`CostModel::emulate_latency`] is off.
    wait_ns: AtomicU64,
    /// Portion of [`NvmStats::wait_ns`] attributable to persistent fences —
    /// the dominant stall of the REWIND commit path (Figure 10's sweep).
    fence_wait_ns: AtomicU64,
}

impl NvmStats {
    /// Creates a fresh, zeroed statistics block.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub(crate) fn record_store(&self) {
        self.stores.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_read(&self) {
        self.reads.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_nt_store(&self) {
        self.nt_stores.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_flush(&self) {
        self.record_flushes(1);
    }

    #[inline]
    pub(crate) fn record_flushes(&self, n: u64) {
        self.flushes.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_fence(&self) {
        self.fences.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_nvm_write(&self) {
        self.record_nvm_writes(1);
    }

    #[inline]
    pub(crate) fn record_nvm_writes(&self, n: u64) {
        self.nvm_writes.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_alloc(&self) {
        self.allocs.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_free(&self) {
        self.frees.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_power_cycle(&self) {
        self.power_cycles.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn charge_ns(&self, ns: u64) {
        if ns > 0 {
            self.sim_ns.fetch_add(ns, Ordering::Relaxed);
        }
    }

    #[inline]
    pub(crate) fn record_wait_ns(&self, ns: u64) {
        if ns > 0 {
            self.wait_ns.fetch_add(ns, Ordering::Relaxed);
        }
    }

    #[inline]
    pub(crate) fn record_fence_wait_ns(&self, ns: u64) {
        if ns > 0 {
            self.fence_wait_ns.fetch_add(ns, Ordering::Relaxed);
        }
    }

    /// Adds an externally computed charge (e.g. the microbenchmark's
    /// calibrated computation cost) to the simulated-time accumulator.
    pub fn charge_external_ns(&self, ns: u64) {
        self.charge_ns(ns);
    }

    /// Takes a point-in-time copy of all counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            nvm_writes: self.nvm_writes.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            nt_stores: self.nt_stores.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            fences: self.fences.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            allocs: self.allocs.load(Ordering::Relaxed),
            frees: self.frees.load(Ordering::Relaxed),
            power_cycles: self.power_cycles.load(Ordering::Relaxed),
            sim_ns: self.sim_ns.load(Ordering::Relaxed),
            wait_ns: self.wait_ns.load(Ordering::Relaxed),
            fence_wait_ns: self.fence_wait_ns.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of [`NvmStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// NVM writes charged (coalesced per cacheline).
    pub nvm_writes: u64,
    /// Volatile stores issued.
    pub stores: u64,
    /// Non-temporal stores issued.
    pub nt_stores: u64,
    /// Cacheline flushes issued.
    pub flushes: u64,
    /// Persistent fences issued.
    pub fences: u64,
    /// Reads issued.
    pub reads: u64,
    /// Allocations served.
    pub allocs: u64,
    /// Frees accepted.
    pub frees: u64,
    /// Simulated power failures.
    pub power_cycles: u64,
    /// Simulated nanoseconds accumulated.
    pub sim_ns: u64,
    /// Nanoseconds actually waited under latency emulation (0 when
    /// emulation is off — `sim_ns` still accounts the model's charges).
    pub wait_ns: u64,
    /// Portion of `wait_ns` spent stalled on persistent fences.
    pub fence_wait_ns: u64,
}

impl StatsSnapshot {
    /// Component-wise difference `self - earlier`, saturating at zero.
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            nvm_writes: self.nvm_writes.saturating_sub(earlier.nvm_writes),
            stores: self.stores.saturating_sub(earlier.stores),
            nt_stores: self.nt_stores.saturating_sub(earlier.nt_stores),
            flushes: self.flushes.saturating_sub(earlier.flushes),
            fences: self.fences.saturating_sub(earlier.fences),
            reads: self.reads.saturating_sub(earlier.reads),
            allocs: self.allocs.saturating_sub(earlier.allocs),
            frees: self.frees.saturating_sub(earlier.frees),
            power_cycles: self.power_cycles.saturating_sub(earlier.power_cycles),
            sim_ns: self.sim_ns.saturating_sub(earlier.sim_ns),
            wait_ns: self.wait_ns.saturating_sub(earlier.wait_ns),
            fence_wait_ns: self.fence_wait_ns.saturating_sub(earlier.fence_wait_ns),
        }
    }

    /// Simulated duration represented by this snapshot.
    pub fn sim_duration(&self) -> Duration {
        Duration::from_nanos(self.sim_ns)
    }

    /// Component-wise sum, for aggregating the snapshots of independent
    /// pools (e.g. the per-shard pools of a partitioned store).
    pub fn merge(&self, other: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            nvm_writes: self.nvm_writes + other.nvm_writes,
            stores: self.stores + other.stores,
            nt_stores: self.nt_stores + other.nt_stores,
            flushes: self.flushes + other.flushes,
            fences: self.fences + other.fences,
            reads: self.reads + other.reads,
            allocs: self.allocs + other.allocs,
            frees: self.frees + other.frees,
            power_cycles: self.power_cycles + other.power_cycles,
            sim_ns: self.sim_ns + other.sim_ns,
            wait_ns: self.wait_ns + other.wait_ns,
            fence_wait_ns: self.fence_wait_ns + other.fence_wait_ns,
        }
    }
}

/// Busy-waits for approximately `ns` nanoseconds (the paper's emulation
/// strategy). Used only when [`CostModel::emulate_latency`] is enabled.
pub(crate) fn busy_wait_ns(ns: u64) {
    if ns == 0 {
        return;
    }
    let target = Duration::from_nanos(ns);
    let start = Instant::now();
    while start.elapsed() < target {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_model_defaults() {
        let m = CostModel::paper();
        assert_eq!(m.write_latency_ns, 150);
        assert!(!m.emulate_latency);
        assert_eq!(CostModel::default(), m);
    }

    #[test]
    fn builders_modify_only_their_field() {
        let m = CostModel::paper()
            .with_fence_latency_ns(5000)
            .with_write_latency_ns(200)
            .with_emulation(true);
        assert_eq!(m.fence_latency_ns, 5000);
        assert_eq!(m.write_latency_ns, 200);
        assert!(m.emulate_latency);
        assert_eq!(m.flush_latency_ns, CostModel::paper().flush_latency_ns);
    }

    #[test]
    fn stats_accumulate_and_snapshot() {
        let s = NvmStats::new();
        s.record_store();
        s.record_store();
        s.record_fence();
        s.record_nvm_write();
        s.charge_ns(300);
        let snap = s.snapshot();
        assert_eq!(snap.stores, 2);
        assert_eq!(snap.fences, 1);
        assert_eq!(snap.nvm_writes, 1);
        assert_eq!(snap.sim_ns, 300);
        assert_eq!(snap.sim_duration(), Duration::from_nanos(300));
    }

    #[test]
    fn snapshot_difference() {
        let s = NvmStats::new();
        s.record_store();
        let a = s.snapshot();
        s.record_store();
        s.record_flush();
        s.charge_ns(100);
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.stores, 1);
        assert_eq!(d.flushes, 1);
        assert_eq!(d.sim_ns, 100);
        // Subtracting in the wrong order saturates instead of wrapping.
        let z = a.since(&b);
        assert_eq!(z.stores, 0);
    }

    #[test]
    fn busy_wait_runs_and_terminates() {
        let start = Instant::now();
        busy_wait_ns(10_000);
        assert!(start.elapsed() >= Duration::from_nanos(5_000));
        busy_wait_ns(0); // must not hang or panic
    }

    #[test]
    fn sleep_emulation_waits_and_defaults_stay_off() {
        assert!(!CostModel::paper().sleep_emulation);
        let m = CostModel::paper().with_sleep_emulation();
        assert!(m.emulate_latency && m.sleep_emulation);
        // Above the floor: the wait happens (parked, not spinning — but the
        // observable contract is just the elapsed time).
        let start = Instant::now();
        m.emulate_wait(SLEEP_EMULATION_FLOOR_NS);
        assert!(start.elapsed() >= Duration::from_nanos(SLEEP_EMULATION_FLOOR_NS / 2));
        // Below the floor it spins; zero must not hang or panic.
        m.emulate_wait(100);
        m.emulate_wait(0);
        // Without emulation the call is a no-op however large the latency.
        let off = CostModel::paper();
        let start = Instant::now();
        off.emulate_wait(1_000_000_000);
        assert!(start.elapsed() < Duration::from_millis(100));
    }

    #[test]
    fn wait_accounting_tracks_emulated_stalls() {
        let s = NvmStats::new();
        s.record_wait_ns(500);
        s.record_fence_wait_ns(200);
        s.record_wait_ns(0); // zero is a no-op, not a counter bump
        let snap = s.snapshot();
        assert_eq!(snap.wait_ns, 500);
        assert_eq!(snap.fence_wait_ns, 200);
        let merged = snap.merge(&snap);
        assert_eq!(merged.wait_ns, 1_000);
        assert_eq!(merged.fence_wait_ns, 400);
        assert_eq!(merged.since(&snap).wait_ns, 500);
    }

    #[test]
    fn free_model_is_all_zero() {
        let m = CostModel::free();
        assert_eq!(m.write_latency_ns, 0);
        assert_eq!(m.fence_latency_ns, 0);
        assert_eq!(m.flush_latency_ns, 0);
        assert_eq!(m.read_latency_ns, 0);
    }
}
