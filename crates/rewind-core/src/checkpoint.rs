//! Log checkpointing (Section 4.6 of the paper).
//!
//! Keeping the log small matters twice over in REWIND: NVM capacity is more
//! precious than disk, and recovery scans and redoes every live record.
//! Which clearing mechanism runs depends on the force policy:
//!
//! * **Force** — each transaction clears its own records right after
//!   commit/rollback (implemented in `TransactionManager::commit` /
//!   `rollback`); an explicit checkpoint is then just a cache flush.
//! * **No-force** — records of finished transactions are removed at
//!   *cache-consistent checkpoints*, which truncate the log **in log order**:
//!
//!   1. take the log's append frontier, then snapshot the transactions that
//!      are not finished (their records are *pinned*);
//!   2. flush the whole cache, making every user write of every transaction
//!      finished at the snapshot durable (a Batch log seals its pending
//!      group first and every append during the flush seals its own, so no
//!      running transaction's write becomes durable ahead of its record);
//!   3. remove records from the head of the log up to the frontier, whole
//!      buckets at a time, skipping pinned records.
//!
//!   Because removal runs from the head, the surviving log is always the
//!   pinned records plus a *suffix* of the rest — also after a crash in the
//!   middle of step 3. Redo then never replays an older value over a newer
//!   one that was already removed, and no transaction loses its END record
//!   while other records of it survive (END is a transaction's last
//!   record). Past the oldest pinned record the walk keeps any record whose
//!   word a pinned record also writes (see `log::Sieve`), so an in-doubt
//!   transaction pins only what it touches, not the whole log behind it.
//!   Concurrent transactions keep appending while a checkpoint runs: they
//!   append past the frontier, which the truncation never crosses. A record is appended and registered with its
//!   transaction under the lock the snapshot takes, so the snapshot knows
//!   every pinned record before the frontier.

use crate::config::Policy;
use crate::log::{Blocked, Pins};
use crate::record::RecordType;
use crate::txn::{Backend, TransactionManager, TxStatus};
use crate::Result;
use std::sync::atomic::Ordering;

impl TransactionManager {
    /// Takes a checkpoint. Under the force policy this only flushes the
    /// cache; under no-force it also truncates the log records of every
    /// finished transaction and performs their deferred de-allocations.
    ///
    /// Returns the number of log records removed.
    pub fn checkpoint(&self) -> Result<u64> {
        let _guard = self.checkpoint_lock.lock();
        self.stats.checkpoints.fetch_add(1, Ordering::Relaxed);
        self.records_since_checkpoint.store(0, Ordering::Relaxed);

        if self.cfg.policy == Policy::Force {
            self.pool.flush_all();
            return Ok(0);
        }

        let removed = match &self.backend {
            Backend::One(log) => {
                // Frontier first, snapshot second: a transaction that
                // appends between the two appends past the frontier.
                let frontier = log.frontier();
                let pins = self.pins();
                log.flush_all_sealed();
                log.truncate(frontier, &pins)?
            }
            Backend::Two(index) => {
                // Only transactions whose END is in the index *before* the
                // flush are covered by it; the others are pinned. Finished
                // ones go whole transactions at a time, ordered by their
                // last record before END, so a crash part-way leaves the
                // newer ones. That is write order: a later writer of a word
                // writes it after the earlier writer's last record before
                // END, since the word's lock is held until then (commit, or
                // prepare under queued prepare — whose END can come after
                // the later writer's, so END order is not write order). A
                // finished transaction that writes a word a survivor also
                // writes stays too (and blocks its own words in turn).
                let mut finished = Vec::new();
                let mut blocked = Blocked::default();
                for txid in index.txids() {
                    let chain = index.records_of(txid)?;
                    if chain.iter().any(|(_, r)| r.rtype == RecordType::End) {
                        let last = chain
                            .iter()
                            .filter(|(_, r)| r.rtype != RecordType::End)
                            .map(|(_, r)| r.lsn)
                            .max()
                            .unwrap_or(0);
                        finished.push((last, txid, chain));
                    } else {
                        chain.iter().for_each(|(_, r)| blocked.add(r));
                    }
                }
                self.pool.flush_all();
                finished.sort_unstable_by_key(|(lsn, _, _)| *lsn);
                let mut removed = 0;
                for (_, txid, chain) in finished {
                    if chain.iter().any(|(_, r)| blocked.hits(r)) {
                        chain.iter().for_each(|(_, r)| blocked.add(r));
                        continue;
                    }
                    self.clear_transaction(txid, true)?;
                    removed += chain.len() as u64;
                }
                removed
            }
        };
        self.stats.truncated.fetch_add(removed, Ordering::Relaxed);
        Ok(removed)
    }

    /// Snapshot of every transaction that is not finished: its id and the
    /// slot of its oldest record (one-layer registries keep append order).
    fn pins(&self) -> Pins {
        let handles: Vec<_> = self
            .table
            .lock()
            .iter()
            .map(|(t, h)| (*t, std::sync::Arc::clone(h)))
            .collect();
        let mut pins = Pins::default();
        for (txid, handle) in handles {
            let e = handle.lock();
            if e.status == TxStatus::Finished {
                continue;
            }
            pins.txids.insert(txid);
            pins.first_slots.extend(e.slots.first().map(|r| r.slot));
        }
        pins
    }
}

#[cfg(test)]
mod tests {
    use crate::txn::AFTER_APPEND;
    use crate::{RewindConfig, TransactionManager};
    use rewind_nvm::{NvmPool, PoolConfig};
    use std::sync::{mpsc, Arc};
    use std::time::{Duration, Instant};

    fn one_layer_configs() -> [RewindConfig; 3] {
        [
            RewindConfig::simple(),
            RewindConfig::optimized(),
            RewindConfig::batch(),
        ]
    }

    /// A checkpoint's flush makes a running transaction's cached write
    /// durable; its record must be durable by then too, also when it sits
    /// in a Batch group that is not sealed yet.
    #[test]
    fn a_running_transactions_write_is_undone_after_a_checkpoint() {
        for cfg in one_layer_configs() {
            let pool = NvmPool::new(PoolConfig::small());
            let tm = TransactionManager::create(Arc::clone(&pool), cfg).unwrap();
            let a = pool.alloc(8).unwrap();
            pool.write_u64_nt(a, 0);
            pool.sfence();
            let tx = tm.begin();
            tm.write_u64(tx, a, 5).unwrap();
            tm.checkpoint().unwrap();
            drop(tm);
            pool.power_cycle();
            let _tm = TransactionManager::open(Arc::clone(&pool), cfg).unwrap();
            assert_eq!(pool.read_u64(a), 0, "{cfg:?}: uncommitted write undone");
        }
    }

    /// A checkpoint that runs while a transaction sits between appending an
    /// UPDATE and registering it must keep that record. The write it
    /// describes becomes durable at the next flush; if the transaction then
    /// never commits, recovery needs the record to undo the write.
    #[test]
    fn a_record_appended_during_the_pin_snapshot_is_kept() {
        for cfg in one_layer_configs() {
            let pool = NvmPool::new(PoolConfig::small());
            let tm = Arc::new(TransactionManager::create(Arc::clone(&pool), cfg).unwrap());
            let a = pool.alloc(16).unwrap();
            let b = a.word(1);
            pool.write_u64_nt(a, 0);
            pool.write_u64_nt(b, 0);
            pool.sfence();
            // Finished transactions ahead of it give the checkpoint work.
            for i in 1..=4 {
                tm.run(|tx| tx.write_u64(b, i)).unwrap();
            }

            let (appended_tx, appended) = mpsc::channel();
            let (go, go_rx) = mpsc::channel::<()>();
            let writer = {
                let tm = Arc::clone(&tm);
                std::thread::spawn(move || {
                    let tx = tm.begin();
                    AFTER_APPEND.set(Some(Box::new(move || {
                        appended_tx.send(()).unwrap();
                        go_rx.recv().unwrap();
                    })));
                    tm.write_u64(tx, a, 5).unwrap();
                })
            };
            appended.recv().unwrap();
            let checkpoint = {
                let tm = Arc::clone(&tm);
                std::thread::spawn(move || tm.checkpoint().unwrap())
            };
            // The checkpoint waits for the registration. Give it time to
            // get that far (or, were it not to wait, to finish).
            let deadline = Instant::now() + Duration::from_millis(200);
            while !checkpoint.is_finished() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(2));
            }
            go.send(()).unwrap();
            writer.join().unwrap();
            checkpoint.join().unwrap();

            // A later checkpoint makes the running transaction's write
            // durable, then the power fails.
            tm.checkpoint().unwrap();
            drop(tm);
            pool.power_cycle();
            let _tm = TransactionManager::open(Arc::clone(&pool), cfg).unwrap();
            assert_eq!(pool.read_u64(a), 0, "{cfg:?}: uncommitted write undone");
            assert_eq!(pool.read_u64(b), 4, "{cfg:?}: committed data kept");
        }
    }
}
