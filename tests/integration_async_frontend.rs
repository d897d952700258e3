//! Crash and semantics matrix for the completion-based async front-end.
//!
//! The acceptance properties:
//!
//! * an acknowledged completion (`Ok` while the pool was alive) is durable —
//!   the write survives `power_cycle` + `recover`;
//! * an *unacknowledged* submission is never torn: at every injected crash
//!   point each key recovers to either its old or its new value, whole;
//! * `Completion::cancel` wins only while the op is still queued, and
//!   dropping a handle never cancels the write it acknowledges;
//! * dropping the store settles every outstanding handle (group backlog and
//!   queued `submit_transact` jobs alike) instead of hanging it;
//! * cross-shard 2PC with queued prepare (early release: each writer's
//!   shard lock is dropped once the commit decision is durable, ENDs
//!   written lock-free) stays all-or-nothing at every crash point of the
//!   release window, and an in-doubt participant with a persisted decision
//!   is driven forward to commit.
//!
//! `REWIND_CRASH_SEED` (swept by the CI crash-stress jobs) perturbs the
//! crash offsets so repeated runs walk different points.

use rewind::core::{Policy, RewindConfig, RewindError};
use rewind::prelude::*;
use std::future::Future;
use std::sync::Arc;
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};

/// Seed from the environment (CI sweeps it); 0 when unset.
fn crash_seed() -> u64 {
    std::env::var("REWIND_CRASH_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// Force-policy config: a returned commit is durable, which lets the
/// oracle reason exactly about what must survive a crash.
fn force_cfg() -> RewindConfig {
    RewindConfig::batch().policy(Policy::Force)
}

fn mk_store(shards: usize) -> ShardedStore {
    ShardedStore::create(
        ShardConfig::new(shards)
            .shard_capacity(8 << 20)
            .rewind(force_cfg()),
    )
    .unwrap()
}

fn old_val(k: u64) -> Value {
    [k, k * 3, !k, k ^ 0x5555]
}

fn new_val(k: u64) -> Value {
    [k + 1_000_000, k * 7, !(k * 2), k ^ 0xaaaa]
}

/// The smallest possible executor: a no-op waker and a spin loop. The
/// completions need no runtime support, so this is enough to drive their
/// `Future` impls through the public API.
fn block_on<F: Future>(mut f: F) -> F::Output {
    fn raw() -> RawWaker {
        fn clone(_: *const ()) -> RawWaker {
            raw()
        }
        fn noop(_: *const ()) {}
        RawWaker::new(
            std::ptr::null(),
            &RawWakerVTable::new(clone, noop, noop, noop),
        )
    }
    let waker = unsafe { Waker::from_raw(raw()) };
    let mut cx = Context::from_waker(&waker);
    // Safety: `f` is a local that never moves after this pin.
    let mut f = unsafe { std::pin::Pin::new_unchecked(&mut f) };
    loop {
        match f.as_mut().poll(&mut cx) {
            Poll::Ready(v) => return v,
            Poll::Pending => std::thread::yield_now(),
        }
    }
}

#[test]
fn acked_completions_survive_power_cycle() {
    let store = mk_store(4);
    let n = 300u64;
    let mut handles: Vec<Completion> = (0..n).map(|k| store.submit_put(k, new_val(k))).collect();
    // One handle is driven as a Future, the rest block — both are public
    // ways to wait and must agree.
    let first = handles.remove(0);
    assert!(block_on(first).unwrap());
    for h in &handles {
        assert!(h.wait().unwrap(), "async put acknowledged");
    }
    let stats = store.stats();
    assert_eq!(stats.group.ops_committed, n, "every op rode a group");

    store.power_cycle();
    store.recover().unwrap();
    for k in 0..n {
        assert_eq!(
            store.get(k).unwrap(),
            Some(new_val(k)),
            "acknowledged async write lost at key {k}"
        );
    }
}

/// Persist events the victim pool sees during the burst alone, measured on
/// an un-armed twin with blocking puts (group sizes differ run to run, so
/// the window is a bracket, not an exact count — the oracle below holds at
/// *every* crash point, wherever the injected crash actually lands).
fn burst_window(shards: usize, victim: usize, keys: &[u64]) -> u64 {
    let store = mk_store(shards);
    for &k in keys {
        store.put(k, old_val(k)).unwrap();
    }
    let before = store.shard_pool(victim).crash_injector().observed_events();
    for &k in keys {
        store.put(k, new_val(k)).unwrap();
    }
    (store.shard_pool(victim).crash_injector().observed_events() - before).max(1)
}

#[test]
fn unacked_submissions_are_never_torn() {
    let shards = 2;
    let keys: Vec<u64> = (0..80).collect();
    let seed = crash_seed();
    for victim in 0..shards {
        let window = burst_window(shards, victim, &keys);
        let step = (window / 6).max(1);
        let mut crash_at = 1 + seed % step;
        while crash_at <= window + step {
            let store = mk_store(shards);
            for &k in &keys {
                store.put(k, old_val(k)).unwrap();
            }
            store
                .shard_pool(victim)
                .crash_injector()
                .arm_after(crash_at);

            let handles: Vec<(u64, Completion)> = keys
                .iter()
                .map(|&k| (k, store.submit_put(k, new_val(k))))
                .collect();
            // Ops acknowledged Ok while the victim pool was still alive are
            // the durable set; an Ok raced with (or after) the freeze is
            // ambiguous — the END may or may not have reached the medium —
            // so it is only held to the never-torn half of the oracle.
            let mut must_survive = Vec::new();
            for (k, h) in handles {
                let ok = h.wait().is_ok();
                let frozen = store
                    .shard_pool(store.shard_of(k))
                    .crash_injector()
                    .is_frozen();
                if ok && !frozen {
                    must_survive.push(k);
                }
            }

            store.power_cycle();
            store.recover().unwrap();
            for &k in &keys {
                let got = store.get(k).unwrap();
                assert!(
                    got == Some(old_val(k)) || got == Some(new_val(k)),
                    "REWIND_CRASH_SEED={seed} victim {victim} crash_at {crash_at}: \
                     torn value at key {k}: {got:?}"
                );
            }
            for &k in &must_survive {
                assert_eq!(
                    store.get(k).unwrap(),
                    Some(new_val(k)),
                    "REWIND_CRASH_SEED={seed} victim {victim} crash_at {crash_at}: \
                     acknowledged write at key {k} did not survive"
                );
            }
            // The store keeps working after recovery.
            let probe = 90_000 + crash_at;
            store.put(probe, old_val(probe)).unwrap();
            assert_eq!(store.get(probe).unwrap(), Some(old_val(probe)));
            crash_at += step;
        }
    }
}

#[test]
fn cancel_wins_only_while_queued_and_drop_does_not_cancel() {
    let store = mk_store(2);
    // Three keys on the same shard per attempt: the lock holder, a claimed
    // op, and the cancellation target.
    let same_shard_keys = |shard: usize, n: usize, from: u64| -> Vec<u64> {
        (from..)
            .filter(|k| store.shard_of(*k) == shard)
            .take(n)
            .collect()
    };

    // An attempt can lose the cancellation race: if the committer only gets
    // scheduled after *both* submissions, it drains and claims them as one
    // batch in the instant before `cancel` runs. A lost attempt still
    // asserts its own invariants (the op settles normally), so retrying is
    // free — and on a saturated machine (the CI crash matrix runs suites in
    // parallel) each attempt is roughly a fair race, hence the generous
    // attempt budget.
    let mut cancelled_once = false;
    for attempt in 0..16u64 {
        let keys = same_shard_keys(0, 3, 10_000 + attempt * 100);
        let (ka, kb, kc) = (keys[0], keys[1], keys[2]);
        let mut claimed: Option<Completion> = None;
        let mut target: Option<(Completion, bool)> = None;
        store
            .transact_keys(&[ka], |tx| {
                tx.put(ka, old_val(ka))?;
                // The committer wakes on this, drains it, and blocks on the
                // shard lock this transaction holds.
                claimed = Some(store.submit_put(kb, new_val(kb)));
                std::thread::sleep(std::time::Duration::from_millis(50));
                // This one therefore stays queued — cancellable.
                let c = store.submit_put(kc, new_val(kc));
                let won = c.cancel();
                target = Some((c, won));
                Ok(())
            })
            .unwrap();

        let claimed = claimed.unwrap();
        assert!(claimed.wait().unwrap(), "the claimed op still commits");
        assert!(
            !claimed.cancel(),
            "cancel after completion must lose and return false"
        );
        assert_eq!(store.get(kb).unwrap(), Some(new_val(kb)));

        let (c, won) = target.unwrap();
        if won {
            // A won cancellation is authoritative: the op never ran.
            assert!(
                matches!(c.wait(), Err(RewindError::Canceled)),
                "cancelled op must report Canceled"
            );
            assert_eq!(store.get(kc).unwrap(), None, "cancelled write applied");
            cancelled_once = true;
            break;
        }
        // Lost the race (committer claimed it first): the op settles
        // normally instead.
        assert!(c.wait().unwrap());
        assert_eq!(store.get(kc).unwrap(), Some(new_val(kc)));
    }
    assert!(
        cancelled_once,
        "no attempt out of 16 cancelled a queued op while the committer \
         was stalled"
    );

    // Dropping a handle does not cancel: the write is already queued and the
    // queue is FIFO per shard, so once a later blocking put to the same
    // shard returns, the dropped op's group has committed too.
    let keys = same_shard_keys(1, 2, 50_000);
    drop(store.submit_put(keys[0], new_val(keys[0])));
    store.put(keys[1], new_val(keys[1])).unwrap();
    assert_eq!(
        store.get(keys[0]).unwrap(),
        Some(new_val(keys[0])),
        "dropping the completion handle must not cancel the write"
    );
    // The cancelled entry is only *counted* when shard 0's committer drains
    // past it (the claim fails, the skip is tallied); push one blocking put
    // through the same FIFO queue so the drain has provably happened.
    let flush = same_shard_keys(0, 1, 80_000)[0];
    store.put(flush, old_val(flush)).unwrap();
    let stats = store.stats();
    assert!(
        stats.group.ops_canceled >= 1,
        "the cancellation was counted"
    );
}

#[test]
fn store_drop_settles_every_outstanding_handle() {
    // Group backlog: handles outlive the store and must settle (commit or
    // Canceled), never hang.
    let store = mk_store(2);
    let handles: Vec<Completion> = (0..200).map(|k| store.submit_put(k, new_val(k))).collect();
    drop(store);
    let mut committed = 0;
    for h in handles {
        match h.wait() {
            Ok(_) => committed += 1,
            Err(RewindError::Canceled) => {}
            Err(e) => panic!("unexpected settle on store drop: {e}"),
        }
    }
    // Whatever the shutdown raced to, nothing hangs — and the committer
    // never invents acknowledgements (committed <= submitted is trivially
    // true; the real assertion is that this line is reached at all).
    assert!(committed <= 200);

    // Transaction worker pool: queued submit_transact jobs settle the same
    // way when the last store handle drops.
    let store = Arc::new(mk_store(2));
    let tx_handles: Vec<TxCompletion<u64>> = (0..50)
        .map(|i| {
            store.submit_transact(move |tx| {
                tx.put(1_000 + i, new_val(i))?;
                Ok(i)
            })
        })
        .collect();
    drop(store);
    for h in tx_handles {
        match h.wait() {
            Ok(_) | Err(RewindError::Canceled) => {}
            Err(e) => panic!("unexpected settle on store drop: {e}"),
        }
    }
}

#[test]
fn async_transactions_commit_and_survive_crashes() {
    let store = Arc::new(mk_store(4));
    let keys: Vec<u64> = (0..store.shard_count())
        .map(|s| (0..10_000u64).find(|k| store.shard_of(*k) == s).unwrap())
        .collect();
    for &k in &keys {
        store.put(k, [1_000, 0, 0, k]).unwrap();
    }
    // A cross-shard transfer through the async path, driven as a Future.
    let (ka, kb) = (keys[0], keys[1]);
    let moved = block_on(store.submit_transact_keys(vec![ka, kb], move |tx| {
        let a = tx.get(ka)?.expect("account a");
        let b = tx.get(kb)?.expect("account b");
        tx.put(ka, [a[0] - 250, a[1] + 1, 0, ka])?;
        tx.put(kb, [b[0] + 250, b[1] + 1, 0, kb])?;
        Ok(250u64)
    }))
    .unwrap();
    assert_eq!(moved, 250);

    // And a pile of disjoint ones concurrently in flight.
    let handles: Vec<TxCompletion<()>> = (0..20u64)
        .map(|round| {
            let pair = [keys[2], keys[3]];
            store.submit_transact_keys(pair.to_vec(), move |tx| {
                for &k in &pair {
                    tx.put(k, [round, round + 1, round + 2, k])?;
                }
                Ok(())
            })
        })
        .collect();
    for h in handles {
        h.wait().unwrap();
    }

    store.power_cycle();
    store.recover().unwrap();
    assert_eq!(store.get(ka).unwrap(), Some([750, 1, 0, ka]));
    assert_eq!(store.get(kb).unwrap(), Some([1_250, 1, 0, kb]));
    // The disjoint transactions were applied in submission order (one
    // worker pool, FIFO queue, per-pair shard locks): the last round wins.
    assert_eq!(store.get(keys[2]).unwrap(), Some([19, 20, 21, keys[2]]));
    assert_eq!(store.get(keys[3]).unwrap(), Some([19, 20, 21, keys[3]]));
}

/// One key per shard, so a transaction over these keys has every shard as a
/// participant.
fn one_key_per_shard(store: &ShardedStore) -> Vec<u64> {
    (0..store.shard_count())
        .map(|s| (0..10_000u64).find(|k| store.shard_of(*k) == s).unwrap())
        .collect()
}

/// Persist events each pool sees during one cross-shard transaction,
/// measured on an un-armed twin (same construction as the cross-shard
/// matrix suite).
fn transact_event_deltas(shards: usize) -> Vec<u64> {
    let store = ShardedStore::create(
        ShardConfig::new(shards)
            .shard_capacity(8 << 20)
            .rewind(force_cfg()),
    )
    .unwrap();
    let keys = one_key_per_shard(&store);
    for &k in &keys {
        store.put(k, old_val(k)).unwrap();
    }
    let before: Vec<u64> = (0..shards)
        .map(|s| store.shard_pool(s).crash_injector().observed_events())
        .collect();
    store
        .transact(|tx| {
            for &k in &keys {
                tx.put(k, new_val(k))?;
            }
            Ok(())
        })
        .unwrap();
    (0..shards)
        .map(|s| store.shard_pool(s).crash_injector().observed_events() - before[s])
        .collect()
}

#[test]
fn early_release_2pc_crash_matrix_stays_atomic() {
    // The queued-prepare release window: once the commit decision is
    // durable the coordinator drops every writer's shard lock and writes
    // the ENDs lock-free, so a crash can land with the locks already gone
    // and the participants still in doubt. Sweep the crash point over each
    // participant pool's whole window (which contains that release window)
    // and hold the all-or-nothing oracle at every point; both directions
    // must appear across the matrix.
    let shards = 4;
    let seed = crash_seed();
    let deltas = transact_event_deltas(shards);
    let mut seen_old = false;
    let mut seen_new = false;
    for (victim, delta) in deltas.iter().enumerate() {
        let window = (*delta).max(1);
        let step = (window / 8).max(1);
        let mut crash_at = 1 + seed % step;
        while crash_at <= window + step {
            let store = ShardedStore::create(
                ShardConfig::new(shards)
                    .shard_capacity(8 << 20)
                    .rewind(force_cfg()),
            )
            .unwrap();
            let keys = one_key_per_shard(&store);
            for &k in &keys {
                store.put(k, old_val(k)).unwrap();
            }
            store
                .shard_pool(victim)
                .crash_injector()
                .arm_after(crash_at);
            let _ = store.transact(|tx| {
                for &k in &keys {
                    tx.put(k, new_val(k))?;
                }
                Ok(())
            });
            store.power_cycle();
            store.recover().unwrap();
            let got: Vec<Option<Value>> = keys.iter().map(|&k| store.get(k).unwrap()).collect();
            let all_old = keys.iter().zip(&got).all(|(&k, v)| *v == Some(old_val(k)));
            let all_new = keys.iter().zip(&got).all(|(&k, v)| *v == Some(new_val(k)));
            assert!(
                all_old || all_new,
                "REWIND_CRASH_SEED={seed} victim {victim} crash_at {crash_at}: \
                 partial transaction with queued prepare: {got:?}"
            );
            seen_old |= all_old;
            seen_new |= all_new;
            crash_at += step;
        }
    }
    assert!(seen_old, "no crash point aborted the transaction");
    assert!(seen_new, "no crash point let the transaction commit");
}

#[test]
fn early_release_in_doubt_resolves_forward() {
    // Walk the crash point backwards from the end of the victim's window
    // until recovery reports an in-doubt transaction: with queued prepare
    // the locks were already released when the crash hit, but the commit
    // decision is durable, so resolution must drive the participant
    // forward — all-new, never a rollback that would contradict the table.
    let shards = 2;
    let victim = 1;
    let window = transact_event_deltas(shards)[victim];
    let mut crash_at = window;
    for _ in 0..80 {
        if crash_at == 0 {
            break;
        }
        let store = ShardedStore::create(
            ShardConfig::new(shards)
                .shard_capacity(8 << 20)
                .rewind(force_cfg()),
        )
        .unwrap();
        let keys = one_key_per_shard(&store);
        for &k in &keys {
            store.put(k, old_val(k)).unwrap();
        }
        store
            .shard_pool(victim)
            .crash_injector()
            .arm_after(crash_at);
        let _ = store.transact(|tx| {
            for &k in &keys {
                tx.put(k, new_val(k))?;
            }
            Ok(())
        });
        store.power_cycle();
        let report = store.recover().unwrap();
        if report.in_doubt == 0 {
            crash_at -= 1;
            continue;
        }
        for &k in &keys {
            assert_eq!(
                store.get(k).unwrap(),
                Some(new_val(k)),
                "in-doubt with a persisted commit decision must commit"
            );
        }
        return;
    }
    panic!("no crash point left the victim in doubt (window {window})");
}

#[test]
fn async_puts_coexist_with_early_release_2pc() {
    // Liveness and isolation under the released-lock interleaving: async
    // submitters hammer every shard while cross-shard transactions (queued
    // prepare on, the default) run concurrently. The test finishing is the
    // liveness half (no deadlock from the reordered lock release); the
    // value checks are the isolation half.
    let store = Arc::new(mk_store(4));
    let keys = one_key_per_shard(&store);
    let writers = 4usize;
    let per_writer = 200u64;
    let txns = 30u64;
    std::thread::scope(|s| {
        for t in 0..writers {
            let store = Arc::clone(&store);
            s.spawn(move || {
                let base = 2_000_000 + t as u64 * 100_000;
                let handles: Vec<Completion> = (0..per_writer)
                    .map(|i| store.submit_put(base + i, old_val(base + i)))
                    .collect();
                for h in handles {
                    h.wait().unwrap();
                }
            });
        }
        let store2 = Arc::clone(&store);
        let keys2 = keys.clone();
        s.spawn(move || {
            for round in 0..txns {
                store2
                    .transact(|tx| {
                        for &k in &keys2 {
                            tx.put(k, [round, round + 1, round + 2, round + 3])?;
                        }
                        Ok(())
                    })
                    .unwrap();
            }
        });
    });
    for t in 0..writers {
        let base = 2_000_000 + t as u64 * 100_000;
        for i in 0..per_writer {
            assert_eq!(store.get(base + i).unwrap(), Some(old_val(base + i)));
        }
    }
    let last = txns - 1;
    for &k in &keys {
        assert_eq!(
            store.get(k).unwrap(),
            Some([last, last + 1, last + 2, last + 3]),
            "cross-shard writes all-or-nothing and in order"
        );
    }
    let stats = store.stats();
    assert!(stats.tm.prepared >= 4 * txns, "2PC ran for every round");
    assert!(stats.group.ops_committed >= (writers as u64) * per_writer);
}
