//! Crash-recovery and concurrency matrix for the sharded, group-committed
//! store front-end — the `ShardedStore` extension of the per-pool crash
//! matrix in `integration_crash_matrix.rs`.

use rewind::core::{Policy, RewindConfig};
use rewind::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

fn val(seed: u64) -> Value {
    [seed, seed.wrapping_mul(31), seed ^ 0xdead_beef, !seed]
}

/// Sweep seed from the environment (the CI crash-stress job iterates it so
/// the crash points and torn-word patterns differ run to run); 0 when unset.
fn crash_seed() -> u64 {
    std::env::var("REWIND_CRASH_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// On oracle failure: write the store's merged trace dump (enabled under
/// `REWIND_TRACE=1`, as in the CI crash-stress job) so the failing crash
/// point explains itself; quiet when tracing was off.
fn dump_trace(store: &ShardedStore, tag: &str) {
    let dump = store.obs().dump();
    match dump.write_file(tag) {
        Ok(Some(path)) => eprintln!("trace dump written to {}", path.display()),
        Ok(None) if !dump.events.is_empty() => eprintln!("{}", dump.render_forensics()),
        Ok(None) => {}
        Err(e) => {
            eprintln!("failed to write trace dump: {e}");
            eprintln!("{}", dump.render_forensics());
        }
    }
}

/// Force-policy config: a returned commit is durable, which lets the oracles
/// below reason exactly about what must survive a crash.
fn force_cfg() -> RewindConfig {
    RewindConfig::batch().policy(Policy::Force)
}

#[test]
fn crash_mid_group_commit_on_one_shard_recovers_whole_store() {
    // Sweep the crash point across the persist events of a burst of
    // group-committed writes landing on one shard, while the other shards
    // keep committing. After whole-store recovery: every committed group
    // survives, the interrupted group rolled back entirely, and every other
    // shard is intact. The environment seed shifts the sweep so repeated CI
    // runs walk different crash points.
    let start = 5 + crash_seed() % 35;
    for crash_at in (start..=400u64).step_by(35) {
        let store = ShardedStore::create(
            ShardConfig::new(4)
                .shard_capacity(16 << 20)
                .rewind(force_cfg()),
        )
        .unwrap();

        // Committed base state spread over every shard.
        for k in 0..120u64 {
            store.put(k, val(k)).unwrap();
        }

        // Arm the crash on the shard owning key 0 only.
        let victim = store.shard_of(0);
        store
            .shard_pool(victim)
            .crash_injector()
            .arm_after(crash_at);

        // Keep writing everywhere. Writes to the victim shard silently stop
        // persisting once the injector fires; the other shards are
        // unaffected. The oracle records a write as durable only if its
        // shard's pool was still live after the put returned (force policy:
        // commit returned => durable). Exactly one group on the victim can
        // straddle the crash point; its keys may hold either value.
        let mut oracle: HashMap<u64, Value> = HashMap::new();
        let mut straddler: Option<(u64, Value)> = None;
        for k in 0..120u64 {
            let v = val(k + 10_000);
            let ok = store.put(k, v).is_ok();
            let frozen = store
                .shard_pool(store.shard_of(k))
                .crash_injector()
                .is_frozen();
            if ok && !frozen {
                oracle.insert(k, v);
            } else if ok && store.shard_of(k) == victim && straddler.is_none() {
                straddler = Some((k, v));
            }
        }

        // Whole-store power failure and recovery.
        store.power_cycle();
        let report = store.recover().unwrap();
        assert!(
            report.log_cleared,
            "REWIND_CRASH_SEED={} crash_at {crash_at}: force-policy recovery \
             clears every shard's log",
            crash_seed()
        );

        if let Some((k, v)) = straddler {
            let actual = store.get(k).unwrap();
            assert!(
                actual == Some(v) || actual == Some(val(k)),
                "REWIND_CRASH_SEED={} crash_at {crash_at}: straddling key {k} is \
                 neither old nor new: {actual:?}",
                crash_seed()
            );
            oracle.insert(k, actual.unwrap());
        }
        for k in 0..120u64 {
            let expect = oracle.get(&k).copied().unwrap_or(val(k));
            let got = store.get(k).unwrap();
            if got != Some(expect) {
                dump_trace(&store, &format!("sharded_group_commit_c{crash_at}"));
                panic!(
                    "REWIND_CRASH_SEED={} crash_at {crash_at}: key {k} (shard {}) \
                     recovered to {got:?}, expected {expect:?}",
                    crash_seed(),
                    store.shard_of(k)
                );
            }
        }

        // Every shard keeps working after recovery.
        for k in 500..520u64 {
            store.put(k, val(k)).unwrap();
            assert_eq!(store.get(k).unwrap(), Some(val(k)));
        }
    }
}

#[test]
fn crash_mid_transact_on_rolls_back_the_whole_transaction() {
    let store = ShardedStore::create(
        ShardConfig::new(4)
            .shard_capacity(16 << 20)
            .rewind(force_cfg()),
    )
    .unwrap();
    let base = 42u64;
    let sib1 = store.sibling_key(base, 1);
    let sib2 = store.sibling_key(base, 2);
    store
        .transact_on(base, |tx| {
            tx.put(base, val(1))?;
            tx.put(sib1, val(2))?;
            tx.put(sib2, val(3))?;
            Ok(())
        })
        .unwrap();

    // Crash in the middle of a second multi-op transaction on that shard.
    store
        .shard_pool(store.shard_of(base))
        .crash_injector()
        .arm_after(10);
    let _ = store.transact_on(base, |tx| {
        tx.put(base, val(91))?;
        tx.put(sib1, val(92))?;
        tx.delete(sib2)?;
        Ok(())
    });
    store.power_cycle();
    store.recover().unwrap();

    // All-or-nothing across the whole multi-op transaction.
    let got = (
        store.get(base).unwrap(),
        store.get(sib1).unwrap(),
        store.get(sib2).unwrap(),
    );
    let old = (Some(val(1)), Some(val(2)), Some(val(3)));
    let new = (Some(val(91)), Some(val(92)), None);
    assert!(
        got == old || got == new,
        "partial transaction visible after recovery: {got:?}"
    );
}

#[test]
fn concurrent_writers_across_shards_with_power_cycle() {
    // Acceptance criterion: >= 4 shards sustaining ops from >= 8 threads,
    // then an injected power cycle, then whole-store recovery with all
    // committed data intact.
    let store =
        Arc::new(ShardedStore::create(ShardConfig::new(4).shard_capacity(32 << 20)).unwrap());
    let threads = 8;
    let per_thread = 300u64;
    std::thread::scope(|s| {
        for t in 0..threads {
            let store = Arc::clone(&store);
            s.spawn(move || {
                let base = t as u64 * 100_000;
                for i in 0..per_thread {
                    let k = base + i;
                    store.put(k, val(k)).unwrap();
                    if i % 3 == 0 {
                        assert_eq!(store.get(k).unwrap(), Some(val(k)));
                    }
                    if i % 5 == 0 {
                        assert!(store.delete(k).unwrap());
                        store.put(k, val(k)).unwrap();
                    }
                }
            });
        }
    });
    assert_eq!(store.len().unwrap(), threads as u64 * per_thread);
    let stats = store.stats();
    assert_eq!(stats.shards, 4);
    assert!(
        stats.group.ops_committed >= threads as u64 * per_thread,
        "every write rode in a committed group"
    );

    // Clean durability point, then a whole-store power failure.
    store.checkpoint().unwrap();
    store.power_cycle();
    store.recover().unwrap();
    for t in 0..threads {
        let base = t as u64 * 100_000;
        for i in 0..per_thread {
            let k = base + i;
            assert_eq!(store.get(k).unwrap(), Some(val(k)), "key {k}");
        }
    }
}

#[test]
fn group_commit_batches_concurrent_writers() {
    // Hold one shard busy with a slow transaction while eight writers
    // enqueue; when the shard frees up, one leader commits the backlog as a
    // group.
    let store =
        Arc::new(ShardedStore::create(ShardConfig::new(2).shard_capacity(16 << 20)).unwrap());
    let key = 5u64;
    let siblings: Vec<u64> = (1..=8).map(|n| store.sibling_key(key, n)).collect();
    std::thread::scope(|s| {
        let blocker = Arc::clone(&store);
        s.spawn(move || {
            blocker
                .transact_on(key, |tx| {
                    tx.put(key, val(0))?;
                    // Keep the shard lock long enough for the writers below
                    // to pile up in the group-commit queue.
                    std::thread::sleep(std::time::Duration::from_millis(300));
                    Ok(())
                })
                .unwrap();
        });
        std::thread::sleep(std::time::Duration::from_millis(50));
        for &k in &siblings {
            let store = Arc::clone(&store);
            s.spawn(move || store.put(k, val(k)).unwrap());
        }
    });
    for &k in &siblings {
        assert_eq!(store.get(k).unwrap(), Some(val(k)));
    }
    let stats = store.stats();
    assert!(
        stats.group.largest_group >= 2,
        "queued writers should commit as one group; stats: {:?}",
        stats.group
    );
    assert!(stats.group.groups_committed < stats.group.ops_committed);
    assert!(stats.group.mean_group_size() > 1.0);
}

#[test]
fn torn_word_crashes_do_not_corrupt_committed_shards() {
    // TornWords persists a pseudo-random subset of in-flight words on every
    // shard pool; committed data must still recover intact on all shards.
    // The environment seed varies the torn patterns run to run.
    let s = crash_seed();
    for seed in [1 + s * 31, 7 + s * 13, 42 + s] {
        let store = ShardedStore::create(
            ShardConfig::new(4)
                .shard_capacity(16 << 20)
                .rewind(force_cfg())
                .crash_mode(CrashMode::TornWords(seed)),
        )
        .unwrap();
        for k in 0..200u64 {
            store.put(k, val(k)).unwrap();
        }
        store.power_cycle();
        store.recover().unwrap();
        for k in 0..200u64 {
            assert_eq!(
                store.get(k).unwrap(),
                Some(val(k)),
                "REWIND_CRASH_SEED={s} torn seed {seed} key {k}"
            );
        }
    }
}

#[test]
fn recovery_report_aggregates_across_shards() {
    let store = ShardedStore::create(
        ShardConfig::new(4)
            .shard_capacity(16 << 20)
            .rewind(force_cfg()),
    )
    .unwrap();
    for k in 0..50u64 {
        store.put(k, val(k)).unwrap();
    }
    // Leave work for recovery: freeze one shard mid-burst.
    store
        .shard_pool(store.shard_of(0))
        .crash_injector()
        .arm_after(25);
    for k in 0..50u64 {
        let _ = store.put(k, val(k + 777));
    }
    store.power_cycle();
    store.recover().unwrap();
    let stats = store.stats();
    let merged = stats.last_recovery.expect("recovery ran on every shard");
    assert_eq!(
        stats.tm.recoveries,
        store.shard_count() as u64,
        "one recovery pass per shard"
    );
    assert!(merged.log_cleared);
}

/// A no-force shard configuration that checkpoints every `every` records,
/// with small buckets and groups so a short run takes many checkpoints and
/// unlinks many whole buckets.
fn checkpointing_cfg(every: u64) -> ShardConfig {
    ShardConfig::new(2)
        .shard_capacity(8 << 20)
        .max_group(4)
        .rewind(
            RewindConfig::batch()
                .bucket_size(16)
                .checkpoint_every(every),
        )
}

/// The value a checkpoint-matrix write stores: key and version, checkable.
fn versioned(key: u64, version: u64) -> Value {
    [key, version, key ^ version.rotate_left(17), !version]
}

/// Overwrites a few keys over and over through blocking puts; returns, per
/// key, the last version acknowledged while the key's shard was live and
/// every version written after it.
fn overwrite_burst(store: &ShardedStore, keys: u64, writes: u64) -> HashMap<u64, (u64, Vec<u64>)> {
    let mut seen: HashMap<u64, (u64, Vec<u64>)> = HashMap::new();
    for version in 1..=writes {
        let k = version % keys;
        let ok = store.put(k, versioned(k, version)).is_ok();
        let live = !store
            .shard_pool(store.shard_of(k))
            .crash_injector()
            .is_frozen();
        let entry = seen.entry(k).or_insert((0, Vec::new()));
        if ok && live {
            *entry = (version, Vec::new());
        } else {
            entry.1.push(version);
        }
    }
    seen
}

#[test]
fn crashes_inside_automatic_checkpoints_keep_every_acked_write() {
    // No-force shards checkpoint every 48 records, so the crash sweep lands
    // inside checkpoints (cache flush and log truncation) as well as inside
    // commit groups. Keys are overwritten again and again: a truncation that
    // left an older record behind a newer removed one would surface as a
    // stale version after redo.
    let (keys, writes) = (12u64, 240u64);
    let victim = 0;
    let events = |every: Option<u64>| {
        let mut cfg = checkpointing_cfg(48);
        cfg.rewind.checkpoint_every = every;
        let store = ShardedStore::create(cfg).unwrap();
        let before = store.shard_pool(victim).crash_injector().observed_events();
        overwrite_burst(&store, keys, writes);
        // Blocking puts return before the committer's checkpoint does;
        // power_cycle waits it out, after which the count is final.
        store.power_cycle();
        let after = store.shard_pool(victim).crash_injector().observed_events();
        (
            after - before,
            store.per_shard_stats()[victim].tm.checkpoints,
        )
    };
    let (window, checkpoints) = events(Some(48));
    let (plain, _) = events(None);
    assert!(checkpoints >= 5, "only {checkpoints} automatic checkpoints");
    // Checkpoints issue `window - plain` of the victim's persist events;
    // the sweep must put several crash points among them.
    let step = (window / 80).max(1);
    assert!(
        window.saturating_sub(plain) >= 4 * step,
        "checkpoints issue too few of the {window} persist events to be swept"
    );
    let seed = crash_seed();
    let mut crash_at = 1 + seed % step;
    while crash_at <= window {
        let store = ShardedStore::create(checkpointing_cfg(48)).unwrap();
        store
            .shard_pool(victim)
            .crash_injector()
            .arm_after(crash_at);
        let seen = overwrite_burst(&store, keys, writes);
        store.power_cycle();
        store.recover().unwrap();
        for (k, (acked, later)) in &seen {
            let got = store.get(*k).unwrap();
            let version = got.map(|v| {
                assert_eq!(v, versioned(*k, v[1]), "torn value for key {k}");
                v[1]
            });
            let ok = match version {
                Some(v) => v == *acked || later.contains(&v),
                None => *acked == 0,
            };
            if !ok {
                dump_trace(&store, "checkpoint-crash-matrix");
            }
            assert!(
                ok,
                "REWIND_CRASH_SEED={seed} crash_at {crash_at}/{window}: key {k} \
                 recovered version {version:?}, last acked {acked}, later {later:?}"
            );
        }
        crash_at += step;
    }
}

#[test]
fn checkpoints_behind_in_doubt_transactions_keep_every_write() {
    // Cross-shard transfers (two-phase, queued prepare) and group-committed
    // puts share both shards while each committer checkpoints every 16
    // records, so checkpoints find prepared participants in the log and
    // must leave their records pinned. The puts insert keys between the
    // accounts, into the leaves the transfers write. Crash at points across
    // the run; after recovery every transfer is all-or-nothing (the total
    // is conserved) and every acked put reads back. The exact interleaving
    // where a checkpoint steps past an in-doubt participant whose words a
    // later group overwrote is pinned down deterministically by the store
    // unit test `checkpoints_step_past_an_in_doubt_participant_...`.
    let accounts: Vec<u64> = (1..=8).map(|a| a * 100).collect();
    let total = 100 * accounts.len() as u64;
    let balance = |v: Option<Value>| v.map_or(0, |v| v[0]);
    let run = |crash_at: Option<u64>| -> (ShardedStore, Vec<u64>) {
        let store = ShardedStore::create(checkpointing_cfg(16)).unwrap();
        for &a in &accounts {
            store.put(a, [100, a, 0, 0]).unwrap();
        }
        if let Some(n) = crash_at {
            store.shard_pool(1).crash_injector().arm_after(n);
        }
        let acked = std::thread::scope(|s| {
            let store = &store;
            let accounts = &accounts;
            s.spawn(move || {
                for i in 0..150u64 {
                    let (a, b) = (
                        accounts[(i % 8) as usize],
                        accounts[((i * 5 + 1) % 8) as usize],
                    );
                    if a == b {
                        continue;
                    }
                    let _ = store.transact_keys(&[a, b], |tx| {
                        let (va, vb) = (tx.get(a)?.unwrap(), tx.get(b)?.unwrap());
                        tx.put(a, [va[0] - 1, a, i, 0])?;
                        tx.put(b, [vb[0] + 1, b, i, 0])
                    });
                }
            });
            let mut acked = Vec::new();
            for k in (0..400u64).map(|i| 100 * (1 + i % 8) + 1 + i / 8) {
                if store.put(k, versioned(k, 1)).is_ok()
                    && !store
                        .shard_pool(store.shard_of(k))
                        .crash_injector()
                        .is_frozen()
                {
                    acked.push(k);
                }
            }
            acked
        });
        (store, acked)
    };
    let (store, _) = run(None);
    let window = store.shard_pool(1).crash_injector().observed_events();
    let stats = store.stats();
    assert!(
        stats.tm.prepared > 0,
        "no transfer went through two-phase commit"
    );
    assert!(stats.tm.checkpoints >= 5, "too few automatic checkpoints");
    drop(store);
    let seed = crash_seed();
    let step = (window / 12).max(1);
    for crash_at in (1 + seed % step..window).step_by(step as usize) {
        let (store, acked) = run(Some(crash_at));
        store.power_cycle();
        store.recover().unwrap();
        let sum: u64 = accounts
            .iter()
            .map(|&a| balance(store.get(a).unwrap()))
            .sum();
        assert_eq!(
            sum, total,
            "REWIND_CRASH_SEED={seed} crash_at {crash_at}/{window}: transfers not atomic"
        );
        for k in acked {
            assert_eq!(
                store.get(k).unwrap(),
                Some(versioned(k, 1)),
                "REWIND_CRASH_SEED={seed} crash_at {crash_at}: acked put {k} lost"
            );
        }
    }
}

#[test]
fn committer_checkpoints_bound_the_log() {
    // Ten checkpoint intervals' worth of group-committed puts (per shard):
    // each shard's live log never exceeds two intervals plus one group's
    // records, and the next recovery scans no more than that.
    let every = 256u64;
    let shards = 2;
    let store = ShardedStore::create(
        ShardConfig::new(shards)
            .shard_capacity(16 << 20)
            .rewind(RewindConfig::batch().checkpoint_every(every)),
    )
    .unwrap();
    store.obs().set_enabled(true);
    let mut peak = vec![0u64; shards];
    let mut key = 0u64;
    for _ in 0..(10 * every * shards as u64).div_ceil(64) {
        let window: Vec<_> = (0..64)
            .map(|_| {
                key += 1;
                store.submit_put(key, val(key))
            })
            .collect();
        for c in window {
            c.wait().unwrap();
        }
        for s in store.per_shard_stats() {
            peak[s.shard] = peak[s.shard].max(s.log_records);
        }
    }
    // The power cycle waits out a checkpoint still running on a committer,
    // so the counters below are final (the crashed managers keep theirs
    // until recovery replaces them).
    store.power_cycle();
    let stats = store.stats();
    assert!(stats.group.ops_committed >= 10 * every * shards as u64);
    let records_per_op = stats.tm.records_logged.div_ceil(stats.group.ops_committed);
    let bound = 2 * every + stats.group.largest_group * records_per_op;
    for s in store.per_shard_stats() {
        assert!(
            s.tm.checkpoints >= 5,
            "shard {}: {} checkpoints",
            s.shard,
            s.tm.checkpoints
        );
        assert!(s.tm.truncated > 0, "shard {} truncated nothing", s.shard);
        assert!(
            peak[s.shard] <= bound,
            "shard {}: {} live records, bound {bound}",
            s.shard,
            peak[s.shard]
        );
    }
    let obs = store.obs().metrics_snapshot();
    assert_eq!(
        obs.checkpoint_ns.count, stats.tm.checkpoints,
        "every checkpoint timed"
    );
    assert_eq!(obs.log_truncated, stats.tm.truncated);
    let traced: Vec<u64> = store
        .obs()
        .dump()
        .events
        .iter()
        .filter(|e| e.kind == rewind::obs::EventKind::Checkpoint)
        .map(|e| e.a)
        .collect();
    for shard in 0..shards as u64 {
        assert!(
            traced.contains(&shard),
            "no checkpoint event for shard {shard}"
        );
    }
    store.recover().unwrap();
    for s in store.per_shard_stats() {
        let scanned = s.last_recovery.expect("shard recovered").scanned;
        assert!(
            scanned <= bound,
            "shard {}: recovery scanned {scanned}, bound {bound}",
            s.shard
        );
    }
    for k in 1..=key {
        assert_eq!(store.get(k).unwrap(), Some(val(k)));
    }
}
