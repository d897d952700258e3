//! Crash sweeps over a no-force checkpoint itself.
//!
//! A checkpoint flushes the cache and then removes the records of finished
//! transactions. If a crash interrupts the removal, recovery redoes whatever
//! survived — so the survivors must never include an older write to a word
//! whose newer write was already removed, and no transaction may lose its
//! END record while other records of it survive. Each sweep below crashes at
//! every persist event of one checkpoint, recovers, and checks the data.

use rewind_core::{LogLayers, RewindConfig, TransactionManager};
use rewind_nvm::{NvmPool, PAddr, PoolConfig};
use std::sync::Arc;

/// Committed transactions before the checkpoint.
const N: u64 = 8;

/// The no-force configurations: each log structure, a Batch log small
/// enough that whole buckets are unlinked, and the two-layer log.
fn configs() -> Vec<(&'static str, RewindConfig)> {
    vec![
        ("simple", RewindConfig::simple()),
        ("optimized", RewindConfig::optimized()),
        ("batch", RewindConfig::batch()),
        ("batch/4-slot buckets", RewindConfig::batch().bucket_size(4)),
        (
            "two-layer batch",
            RewindConfig::batch().layers(LogLayers::TwoLayer),
        ),
    ]
}

/// Words the transactions write: `A`, `B`, and `C` for the in-doubt one.
struct Words {
    a: PAddr,
    b: PAddr,
    c: PAddr,
}

/// Builds a manager whose log holds `N` committed transactions, each
/// overwriting `A` and `B` with its own sequence number. With `in_doubt`, a
/// transaction that writes `C` and prepares comes first, so it pins the head
/// of the log.
fn setup(cfg: RewindConfig, in_doubt: bool) -> (Arc<NvmPool>, TransactionManager, Words) {
    let pool = NvmPool::new(PoolConfig::small());
    let tm = TransactionManager::create(Arc::clone(&pool), cfg).unwrap();
    let base = pool.alloc(24).unwrap();
    for i in 0..3 {
        pool.write_u64_nt(base.word(i), 0);
    }
    pool.sfence();
    let w = Words {
        a: base,
        b: base.word(1),
        c: base.word(2),
    };
    if in_doubt {
        let tx = tm.begin();
        tm.write_u64(tx, w.c, 77).unwrap();
        tm.prepare(tx, 4242).unwrap();
    }
    for i in 1..=N {
        tm.run(|tx| {
            tx.write_u64(w.a, i)?;
            tx.write_u64(w.b, i)
        })
        .unwrap();
    }
    (pool, tm, w)
}

/// Persist events one checkpoint of the set-up log issues.
fn checkpoint_events(cfg: RewindConfig, in_doubt: bool) -> u64 {
    let (pool, tm, _) = setup(cfg, in_doubt);
    let before = pool.crash_injector().observed_events();
    tm.checkpoint().unwrap();
    pool.crash_injector().observed_events() - before
}

/// Crashes one checkpoint at every persist event and checks every outcome.
fn sweep(in_doubt: bool) {
    for (name, cfg) in configs() {
        let events = checkpoint_events(cfg, in_doubt);
        assert!(events > 0, "{name}: checkpoint issued no persist events");
        for k in 1..=events {
            let (pool, tm, w) = setup(cfg, in_doubt);
            pool.crash_injector().arm_after(k);
            let _ = tm.checkpoint();
            drop(tm);
            pool.power_cycle();
            let tm = TransactionManager::open(Arc::clone(&pool), cfg).unwrap();
            let got = (pool.read_u64(w.a), pool.read_u64(w.b));
            assert_eq!(
                got,
                (N, N),
                "{name}: crash at checkpoint event {k}/{events} lost committed data"
            );
            if in_doubt {
                let pending = tm.in_doubt().unwrap();
                assert_eq!(pending.len(), 1, "{name} k={k}: in-doubt tx lost");
                assert_eq!(pending[0].1, 4242);
                assert_eq!(pool.read_u64(w.c), 77, "{name} k={k}: in-doubt write");
                tm.commit_prepared(pending[0].0).unwrap();
            }
            // The recovered log checkpoints and recovers again cleanly.
            tm.checkpoint().unwrap();
            drop(tm);
            pool.power_cycle();
            let tm = TransactionManager::open(Arc::clone(&pool), cfg).unwrap();
            assert_eq!((pool.read_u64(w.a), pool.read_u64(w.b)), (N, N));
            assert!(tm.in_doubt().unwrap().is_empty());
            if in_doubt {
                assert_eq!(pool.read_u64(w.c), 77);
            }
        }
    }
}

#[test]
fn interrupted_checkpoint_never_loses_committed_data() {
    sweep(false);
}

#[test]
fn interrupted_checkpoint_behind_an_in_doubt_transaction() {
    sweep(true);
}

#[test]
fn completed_checkpoint_empties_a_finished_log() {
    for (name, cfg) in configs() {
        let (pool, tm, w) = setup(cfg, false);
        let removed = tm.checkpoint().unwrap();
        assert_eq!(removed, 3 * N, "{name}: two updates + END per transaction");
        assert_eq!(tm.log_len(), 0, "{name}");
        assert_eq!(tm.stats().truncated, 3 * N, "{name}");
        drop(tm);
        pool.power_cycle();
        let tm = TransactionManager::open(Arc::clone(&pool), cfg).unwrap();
        assert_eq!(tm.last_recovery().unwrap().scanned, 0, "{name}");
        assert_eq!((pool.read_u64(w.a), pool.read_u64(w.b)), (N, N));
    }
}

/// A prepared transaction whose commit decision is durable may have its
/// words overwritten by later transactions before its END is written (the
/// sharded store's queued prepare releases the shard lock at that point).
/// Truncation steps past the in-doubt records but must keep every later
/// record that writes one of their words, or redo would replay the in-doubt
/// value over the newer committed one.
#[test]
fn later_writes_to_an_in_doubt_word_survive_truncation() {
    for (name, cfg) in configs() {
        let (pool, tm, p, a) = overwritten_prepare(cfg);
        tm.checkpoint().unwrap();
        drop(tm);
        pool.power_cycle();
        let tm = TransactionManager::open(Arc::clone(&pool), cfg).unwrap();
        assert_eq!(tm.in_doubt().unwrap(), vec![(p, 9)], "{name}");
        tm.commit_prepared(p).unwrap();
        assert_eq!(pool.read_u64(a), 100 + N, "{name}: newer committed value");
        assert_eq!(pool.read_u64(a.word(1)), N, "{name}");
        tm.checkpoint().unwrap();
        assert_eq!(tm.log_len(), 0, "{name}: resolved log truncates fully");
    }
}

/// The same overwrites, but the prepared transaction is committed before
/// the checkpoint, so nothing is in doubt: its END now follows the newer
/// transactions' ENDs while its write is the oldest. A checkpoint crashed at
/// any persist event must not leave its record behind the newer ones.
#[test]
fn interrupted_checkpoint_after_a_late_commit_of_an_overwritten_prepare() {
    let setup = |cfg| {
        let (pool, tm, p, a) = overwritten_prepare(cfg);
        tm.commit_prepared(p).unwrap();
        (pool, tm, a)
    };
    for (name, cfg) in configs() {
        let events = {
            let (pool, tm, _) = setup(cfg);
            let before = pool.crash_injector().observed_events();
            tm.checkpoint().unwrap();
            pool.crash_injector().observed_events() - before
        };
        for k in 1..=events {
            let (pool, tm, a) = setup(cfg);
            pool.crash_injector().arm_after(k);
            let _ = tm.checkpoint();
            drop(tm);
            pool.power_cycle();
            let tm = TransactionManager::open(Arc::clone(&pool), cfg).unwrap();
            assert_eq!(
                (pool.read_u64(a), pool.read_u64(a.word(1))),
                (100 + N, N),
                "{name}: crash at checkpoint event {k}/{events}"
            );
            assert!(tm.in_doubt().unwrap().is_empty(), "{name} k={k}");
        }
    }
}

/// A transaction `P` writes `A = 100` and prepares (decision 9); then `N`
/// committed transactions overwrite `A` with `100 + i` and the word after it
/// with `i`. Returns the pool, the manager, `P` and `A`.
fn overwritten_prepare(cfg: RewindConfig) -> (Arc<NvmPool>, TransactionManager, u64, PAddr) {
    let pool = NvmPool::new(PoolConfig::small());
    let tm = TransactionManager::create(Arc::clone(&pool), cfg).unwrap();
    let a = pool.alloc(16).unwrap();
    pool.write_u64_nt(a, 0);
    pool.write_u64_nt(a.word(1), 0);
    pool.sfence();
    let p = tm.begin();
    tm.write_u64(p, a, 100).unwrap();
    tm.prepare(p, 9).unwrap();
    for i in 1..=N {
        tm.run(|tx| {
            tx.write_u64(a, 100 + i)?;
            tx.write_u64(a.word(1), i)
        })
        .unwrap();
    }
    (pool, tm, p, a)
}
