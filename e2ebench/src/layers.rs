//! The metric catalogue and the per-layer attribution that every workload
//! shares: counters diffed around a phase and the store's obs histograms.

use crate::report::Report;
use crate::stats::Counters;
use rewind_obs::{HistSnapshot, MetricsSnapshot};

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("get_p50_us", "us"),
    ("get_p90_us", "us"),
    ("put_p50_us", "us"),
    ("put_p90_us", "us"),
    ("throughput_ops_s", "1/s"),
    ("recovery_s", "s"),
    ("bytes_per_user_byte", "ratio"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed by every traced run. A metric of a layer a
/// workload does not exercise reads 0 there (its base says so).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("gen.late_p50_us", "us"),
    ("gen.late_p99_us", "us"),
    ("wire.get_p99_us", "us"),
    ("wire.put_p99_us", "us"),
    ("net.get_overhead_us", "us"),
    ("net.put_overhead_us", "us"),
    ("net.server_op_p50_us", "us"),
    ("net.server_op_p99_us", "us"),
    ("net.busy", "count"),
    ("net.stalls", "count"),
    ("shard.get_p50_us", "us"),
    ("shard.get_p99_us", "us"),
    ("shard.ack_p50_us", "us"),
    ("shard.ack_p99_us", "us"),
    ("shard.mean_group", "ops"),
    ("shard.queue_depth_p99", "ops"),
    ("shard.group_flush_p50_us", "us"),
    ("shard.group_flush_p99_us", "us"),
    ("shard.xfer_p50_us", "us"),
    ("shard.xfer_p99_us", "us"),
    ("shard.prepare_p99_us", "us"),
    ("shard.two_phase_p99_us", "us"),
    ("shard.coord_restarts", "count"),
    ("shard.serial_fallbacks", "count"),
    ("shard.groups_failed", "count"),
    ("core.records_per_op", "1/op"),
    ("core.commits_per_op", "1/op"),
    ("core.commit_p50_us", "us"),
    ("core.commit_p99_us", "us"),
    ("core.rolled_back", "count"),
    ("core.recovery_us", "us"),
    ("nvm.fences_per_op", "1/op"),
    ("nvm.writes_per_op", "1/op"),
    ("nvm.flushes_per_op", "1/op"),
    ("nvm.sim_us_per_op", "us/op"),
    ("nvm.fence_wait_frac", "ratio"),
    ("nvm.io_ops_per_op", "1/op"),
    ("nvm.io_ops_per_fence", "ratio"),
    ("nvm.allocs_per_op", "1/op"),
    ("nvm.file_mib", "MiB"),
    ("nvm.reopen_mib_per_s", "MiB/s"),
    ("pds.reads_per_get", "1/get"),
    ("obs.overhead_frac", "ratio"),
];

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

fn us(h: &HistSnapshot, q: f64) -> f64 {
    if h.is_empty() {
        0.0
    } else {
        h.percentile(q) as f64 / 1e3
    }
}

/// The layer metrics read from counters diffed over a phase of `ops`
/// user operations (`what` names them in the printed base).
pub fn counters(rep: &mut Report, c: &Counters, ops: u64, what: &str) {
    let per_op = |rep: &mut Report, name: &'static str, n: u64, label: &str| {
        let base = format!("({n} {label} / {ops} {what})");
        rep.metric(name, ratio(n, ops), base);
    };
    per_op(rep, "core.records_per_op", c.records, "log records");
    per_op(rep, "core.commits_per_op", c.commits, "commits");
    per_op(rep, "nvm.fences_per_op", c.nvm.fences, "fences");
    per_op(rep, "nvm.writes_per_op", c.nvm.nvm_writes, "NVM writes");
    per_op(rep, "nvm.flushes_per_op", c.nvm.flushes, "flushes");
    per_op(rep, "nvm.allocs_per_op", c.nvm.allocs, "allocs");
    per_op(rep, "nvm.io_ops_per_op", c.io_ops, "backend I/O ops");
    rep.metric(
        "nvm.sim_us_per_op",
        c.nvm.sim_ns as f64 / 1e3 / ops.max(1) as f64,
        format!("({} simulated ns / {ops} {what})", c.nvm.sim_ns),
    );
    rep.metric(
        "nvm.fence_wait_frac",
        ratio(c.nvm.fence_wait_ns, c.nvm.wait_ns),
        format!(
            "({} ns waited on fences / {} ns emulated wait)",
            c.nvm.fence_wait_ns, c.nvm.wait_ns
        ),
    );
    rep.metric(
        "nvm.io_ops_per_fence",
        ratio(c.io_ops, c.nvm.fences),
        format!("({} backend I/O ops / {} fences)", c.io_ops, c.nvm.fences),
    );
    rep.metric(
        "shard.mean_group",
        ratio(c.group.ops_committed, c.group.groups_committed),
        format!(
            "({} ops / {} groups)",
            c.group.ops_committed, c.group.groups_committed
        ),
    );
    for (name, n) in [
        ("shard.coord_restarts", c.restarts),
        ("shard.serial_fallbacks", c.serial_fallbacks),
        ("shard.groups_failed", c.group.groups_failed),
        ("core.rolled_back", c.rolled_back),
    ] {
        rep.metric(name, n as f64, format!("(over {ops} {what})"));
    }
}

/// The layer metrics read from the store's obs histograms, which were
/// empty when the traced phase began.
pub fn obs(rep: &mut Report, m: &MetricsSnapshot) {
    let hist = |rep: &mut Report, name: &'static str, h: &HistSnapshot, q: f64| {
        rep.metric(name, us(h, q), format!("({} samples)", h.count));
    };
    hist(rep, "net.server_op_p50_us", &m.net_op_ns, 0.5);
    hist(rep, "net.server_op_p99_us", &m.net_op_ns, 0.99);
    hist(rep, "shard.group_flush_p50_us", &m.group_flush_ns, 0.5);
    hist(rep, "shard.group_flush_p99_us", &m.group_flush_ns, 0.99);
    hist(rep, "shard.prepare_p99_us", &m.prepare_ns, 0.99);
    hist(rep, "shard.two_phase_p99_us", &m.two_phase_ns, 0.99);
    hist(rep, "core.commit_p50_us", &m.commit_ns, 0.5);
    hist(rep, "core.commit_p99_us", &m.commit_ns, 0.99);
    let qd = &m.queue_depth;
    let depth = if qd.is_empty() {
        0.0
    } else {
        qd.percentile(0.99) as f64
    };
    rep.metric(
        "shard.queue_depth_p99",
        depth,
        format!("({} group formations)", qd.count),
    );
    rep.metric("net.busy", m.net_busy as f64, String::new());
    rep.metric("net.stalls", m.net_stalls as f64, String::new());
}

/// Mean duration of the recovery passes recorded between two snapshots of
/// the obs `recovery_ns` histogram, in microseconds.
pub fn recovery_us(rep: &mut Report, before: &HistSnapshot, after: &HistSnapshot) {
    let n = after.count - before.count;
    let sum = after.sum - before.sum;
    rep.metric(
        "core.recovery_us",
        sum as f64 / 1e3 / n.max(1) as f64,
        format!("(mean of {n} per-shard recovery passes)"),
    );
}
