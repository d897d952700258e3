//! Crash recovery (Section 4.5 of the paper).
//!
//! Recovery proceeds bottom-up, mirroring the paper's layering: first the log
//! structures recover themselves (the ADLL completes its interrupted
//! operation, the bucketed log rebuilds its volatile state, the AVL index
//! rolls back its interrupted structural operation), then the record contents
//! drive the transaction-level phases:
//!
//! 1. **Analysis** — a forward scan reconstructs the transaction table and
//!    finds the highest LSN / transaction id in use.
//! 2. **Redo** (no-force policy only) — a forward scan re-applies every
//!    logged write (updates *and* compensations), repeating history so that a
//!    crash during an earlier rollback loses nothing.
//! 3. **Undo** — every transaction without an END record is rolled back,
//!    *except* transactions holding a durable PREPARE record: those are in
//!    doubt and must wait for the two-phase-commit coordinator's decision.
//!    The one-layer configuration uses the single backward scan of the
//!    paper's Algorithm 2 (with the `undoMap` used to skip records that an
//!    earlier, interrupted recovery had already compensated); the two-layer
//!    configuration walks each unfinished transaction's record chain through
//!    the AVL index.
//!
//! Finally END records are written for the rolled-back transactions, the
//! transaction table is cleared, and — under the force policy, where every
//! surviving transaction is complete — the whole log is dropped in one step.

use crate::config::Policy;
use crate::record::{LogRecord, RecordType};
use crate::txn::{analyze_records, Backend, RecordLocation, TransactionManager, TxStatus};
use crate::Result;
use rewind_obs::{EventKind, Obs};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::Ordering;

/// Emits a `RecoveryPhase` event for the phase that just finished and
/// restarts the phase clock (no-op while tracing is disabled).
fn phase_mark(obs: &Obs, phase: u64, t: &mut Option<std::time::Instant>) {
    if let Some(t0) = *t {
        obs.emit(
            EventKind::RecoveryPhase,
            0,
            phase,
            t0.elapsed().as_nanos() as u64,
        );
        *t = obs.clock();
    }
}

/// What a recovery pass did, for observability and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Transactions found already finished (committed or fully rolled back).
    pub finished: u64,
    /// Transactions found *in doubt*: prepared for a two-phase commit with
    /// no decision applied. Recovery neither commits nor rolls these back —
    /// they stay in the transaction table (see
    /// [`TransactionManager::in_doubt`]) until a coordinator resolves them
    /// with `commit_prepared` / `rollback_prepared`.
    pub in_doubt: u64,
    /// Transactions that had to be rolled back by recovery.
    pub rolled_back: u64,
    /// Physical writes re-applied during the redo phase.
    pub redone: u64,
    /// Updates undone during the undo phase.
    pub undone: u64,
    /// Log records scanned during analysis.
    pub scanned: u64,
    /// Whether the log was cleared wholesale at the end (force policy).
    pub log_cleared: bool,
}

impl RecoveryReport {
    /// Component-wise sum (`log_cleared` is AND-ed), for aggregating the
    /// per-shard recovery passes of a partitioned store.
    pub fn merge(&self, other: &RecoveryReport) -> RecoveryReport {
        RecoveryReport {
            finished: self.finished + other.finished,
            in_doubt: self.in_doubt + other.in_doubt,
            rolled_back: self.rolled_back + other.rolled_back,
            redone: self.redone + other.redone,
            undone: self.undone + other.undone,
            scanned: self.scanned + other.scanned,
            log_cleared: self.log_cleared && other.log_cleared,
        }
    }
}

impl TransactionManager {
    /// Runs full crash recovery. Called automatically by
    /// [`TransactionManager::open`] when the pool was not shut down cleanly;
    /// it can also be invoked explicitly and is idempotent — running it on a
    /// consistent log finds nothing to do.
    pub fn recover(&self) -> Result<RecoveryReport> {
        self.stats.recoveries.fetch_add(1, Ordering::Relaxed);
        let mut report = RecoveryReport::default();
        let t_total = self.obs.clock();
        let mut t_phase = t_total;
        self.obs.emit(EventKind::RecoveryStart, 0, 0, 0);

        // Phase 0: the log recovers itself.
        match &self.backend {
            Backend::One(log) => log.recover_structures()?,
            Backend::Two(index) => {
                index.recover()?;
            }
        }
        phase_mark(&self.obs, 0, &mut t_phase);

        // Phase 1: analysis. Besides transaction statuses and counters this
        // rebuilds the volatile per-transaction slot registries — the one
        // full scan the registries are allowed to cost.
        let records = self.all_records(true)?;
        report.scanned = records.len() as u64;
        let mut analysis = analyze_records(&records);
        let table = std::mem::take(&mut analysis.statuses);
        self.next_lsn.store(analysis.max_lsn + 1, Ordering::SeqCst);
        self.next_txid
            .store(analysis.max_txid + 1, Ordering::SeqCst);
        {
            let mut t = self.table.lock();
            t.clear();
            for (txid, status) in &table {
                t.insert(*txid, analysis.take_entry(*txid, *status));
            }
        }
        report.finished = table.values().filter(|s| **s == TxStatus::Finished).count() as u64;
        report.in_doubt = table.values().filter(|s| **s == TxStatus::Prepared).count() as u64;
        phase_mark(&self.obs, 1, &mut t_phase);

        // Phase 2: redo (no-force only) — repeat history.
        if self.cfg.policy == Policy::NoForce {
            for (_, _, rec) in &records {
                match rec.rtype {
                    RecordType::Update | RecordType::Clr => {
                        self.pool.write_u64(rec.addr, rec.new);
                        report.redone += 1;
                    }
                    _ => {}
                }
            }
        }
        phase_mark(&self.obs, 2, &mut t_phase);

        // Phase 3: undo all unfinished transactions — except prepared ones,
        // which made a durable promise to hold still until the coordinator's
        // decision arrives.
        let losers: Vec<u64> = table
            .iter()
            .filter(|(_, s)| !matches!(**s, TxStatus::Finished | TxStatus::Prepared))
            .map(|(t, _)| *t)
            .collect();
        report.rolled_back = losers.len() as u64;
        if !losers.is_empty() {
            match &self.backend {
                Backend::One(_) => {
                    report.undone += self.undo_one_layer(&records, &table)?;
                }
                Backend::Two(_) => {
                    report.undone += self.undo_two_layer(&losers)?;
                }
            }
            // Mark completion of every rollback.
            for txid in &losers {
                let mut end = LogRecord::end(self.next_lsn(), *txid);
                self.append_for(*txid, &mut end)?;
                self.set_status(*txid, TxStatus::Finished);
                self.stats.rolled_back.fetch_add(1, Ordering::Relaxed);
            }
        }

        phase_mark(&self.obs, 3, &mut t_phase);

        // Under no-force the data restored by redo/undo lives in the cache;
        // make the recovered image durable before declaring victory.
        if self.cfg.policy == Policy::NoForce {
            self.pool.flush_all();
        }

        // Phase 4: post-recovery log clearing. Under the force policy every
        // transaction is now complete — unless in-doubt prepared
        // transactions survive, whose records must stay in the log until the
        // coordinator's decision arrives. With no in-doubt work the whole
        // log is dropped in one step (much cheaper than record-by-record
        // removal); otherwise finished transactions are cleared one by one
        // through their rebuilt slot registries.
        if self.cfg.policy == Policy::Force {
            match &self.backend {
                Backend::One(log) if report.in_doubt == 0 => {
                    // Process deferred de-allocations of committed work first.
                    for (_, _, rec) in &records {
                        if rec.rtype == RecordType::Delete
                            && table.get(&rec.txid) == Some(&TxStatus::Finished)
                        {
                            self.pool.free(rec.addr, rec.old as usize)?;
                        }
                    }
                    log.clear_all()?;
                    self.persist_root();
                }
                Backend::One(_) => {
                    // Clear every transaction the *live* table now holds as
                    // Finished — the analysis-time snapshot is stale here:
                    // the losers this very pass rolled back reached Finished
                    // only after it was taken, and skipping them would leak
                    // their records into the log forever (Force has no
                    // checkpoint clearing to catch them later).
                    // clear_transaction processes each transaction's DELETE
                    // records itself.
                    let candidates: Vec<(u64, crate::txn::TxHandle)> = self
                        .table
                        .lock()
                        .iter()
                        .map(|(t, h)| (*t, std::sync::Arc::clone(h)))
                        .collect();
                    for (txid, handle) in candidates {
                        if handle.lock().status == TxStatus::Finished {
                            self.clear_transaction(txid, true)?;
                        }
                    }
                }
                Backend::Two(index) => {
                    for txid in index.txids() {
                        if table.get(&txid) == Some(&TxStatus::Prepared) {
                            continue;
                        }
                        self.clear_transaction(txid, true)?;
                    }
                    self.persist_root();
                }
            }
            report.log_cleared = report.in_doubt == 0;
        }

        // Recovery leaves no running transactions behind, and finished
        // ones need no table entry (force: their records are gone; no-force:
        // the next checkpoint truncates them without per-transaction state).
        // Prepared (in-doubt) entries stay — their rebuilt slot registries
        // are what `commit_prepared` / `rollback_prepared` consume when the
        // coordinator's decision arrives, and they pin their records against
        // truncation until then.
        self.table
            .lock()
            .retain(|_, h| h.lock().status == TxStatus::Prepared);
        phase_mark(&self.obs, 4, &mut t_phase);
        if let Some(t0) = t_total {
            let ns = t0.elapsed().as_nanos() as u64;
            self.obs.metrics().recovery_ns.record(ns);
            self.obs.emit(EventKind::RecoveryDone, 0, 0, ns);
        }
        *self.last_recovery.lock() = Some(report);
        Ok(report)
    }

    /// Report of the most recent [`TransactionManager::recover`] pass run by
    /// this manager (including the implicit one in
    /// [`TransactionManager::open`]), or `None` if none has run. Multi-pool
    /// front-ends aggregate these per-partition reports into one view.
    pub fn last_recovery(&self) -> Option<RecoveryReport> {
        *self.last_recovery.lock()
    }

    /// The paper's Algorithm 2: a single backward scan that undoes every
    /// unfinished transaction, using `undo_map` to skip records that a
    /// previous, interrupted recovery already compensated.
    fn undo_one_layer(
        &self,
        records: &[(RecordLocation, rewind_nvm::PAddr, LogRecord)],
        table: &HashMap<u64, TxStatus>,
    ) -> Result<u64> {
        let mut undone = 0u64;
        // LSN of the oldest record already compensated, per transaction.
        let mut undo_map: HashMap<u64, u64> = HashMap::new();
        let mut rollback_written: HashSet<u64> = HashSet::new();
        for (_, _, rec) in records.iter().rev() {
            let status = match table.get(&rec.txid) {
                Some(s) => *s,
                None => continue,
            };
            if matches!(status, TxStatus::Finished | TxStatus::Prepared) {
                continue;
            }
            if status == TxStatus::Running && rollback_written.insert(rec.txid) {
                let mut marker = LogRecord::rollback(self.next_lsn(), rec.txid);
                self.append_for(rec.txid, &mut marker)?;
            }
            match rec.rtype {
                RecordType::Clr => {
                    if let std::collections::hash_map::Entry::Vacant(e) = undo_map.entry(rec.txid) {
                        // First (i.e. most recent) CLR of this transaction:
                        // everything at or above the LSN it compensated is
                        // already undone.
                        e.insert(rec.undo_next.offset());
                        if self.cfg.policy == Policy::Force {
                            // Re-apply the most recent compensation: it may
                            // have been created right before the crash,
                            // before its user write reached NVM.
                            self.pool.write_u64_nt(rec.addr, rec.new);
                        }
                    }
                }
                RecordType::Update => {
                    let already_undone = undo_map
                        .get(&rec.txid)
                        .map(|compensated| rec.lsn >= *compensated)
                        .unwrap_or(false);
                    if !already_undone {
                        self.undo_one(rec.txid, rec)?;
                        undone += 1;
                    }
                }
                _ => {}
            }
        }
        Ok(undone)
    }

    /// Per-transaction undo through the AVL index (two-layer configuration).
    fn undo_two_layer(&self, losers: &[u64]) -> Result<u64> {
        let Backend::Two(index) = &self.backend else {
            unreachable!("undo_two_layer called on a one-layer manager");
        };
        let mut undone = 0u64;
        for txid in losers {
            let chain = index.records_of(*txid)?; // newest first
                                                  // Records already undone = number of CLRs written before the
                                                  // crash; the undo order is deterministic (newest update first),
                                                  // so the newest `clr_count` updates are already compensated.
            let clr_count = chain
                .iter()
                .filter(|(_, r)| r.rtype == RecordType::Clr)
                .count();
            if self.cfg.policy == Policy::Force {
                // Redo the most recent CLR to cover a crash between the CLR
                // and its user write.
                if let Some((_, clr)) = chain.iter().find(|(_, r)| r.rtype == RecordType::Clr) {
                    self.pool.write_u64_nt(clr.addr, clr.new);
                }
            }
            let updates: Vec<&LogRecord> = chain
                .iter()
                .map(|(_, r)| r)
                .filter(|r| r.rtype == RecordType::Update)
                .collect();
            for rec in updates.iter().skip(clr_count) {
                self.undo_one(*txid, rec)?;
                undone += 1;
            }
        }
        Ok(undone)
    }
}
