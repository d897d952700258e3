//! Cross-shard atomic transactions: concurrent two-phase-commit
//! coordinators over the per-shard REWIND transaction managers.
//!
//! A [`ShardedStore::transact`](crate::ShardedStore::transact) closure may
//! touch keys on any shard. Each operation is routed to the owning shard,
//! which joins the transaction as a *participant*: a running REWIND
//! transaction plus the shard lock, held until the outcome is settled (that
//! lock-holding is what isolates the cross-shard transaction from group
//! commits and single-shard transactions riding on the same shards). When
//! the closure returns `Ok`, the coordinator drives the classic
//! presumed-abort two-phase commit over the participants that *wrote*:
//!
//! 1. **Prepare** — every writing participant appends a durable PREPARE
//!    record carrying the coordinator's global transaction id (gtid) and
//!    flushes its log. From here on the participant survives a crash *in
//!    doubt*: its shard's recovery neither commits nor rolls it back.
//!    Read-only participants skip this phase entirely — they log nothing,
//!    so there is nothing for a crash to leave in doubt.
//! 2. **Decide** — the coordinator durably appends a commit decision for
//!    the gtid to the [`DecisionLog`], a small persistent table in shard 0's
//!    pool. This single persist event is the transaction's commit point.
//!    Read-only participants are released here: their locks protected the
//!    reads up to the moment the outcome became final (strict two-phase
//!    locking), and holding them through phase 2 would buy nothing.
//! 3. **Commit** — every writing participant writes its END record and
//!    clears its log records. Once all of them finished, the decision entry
//!    is retired.
//!
//! A crash anywhere in this protocol leaves each shard either finished,
//! running (rolled back by its own recovery) or prepared.
//! [`ShardedStore::recover`](crate::ShardedStore::recover) resolves the
//! prepared ones after every shard is back: an in-doubt transaction whose
//! gtid has a persisted commit decision is committed, every other one is
//! rolled back (*presumed abort* — the decision record is written before
//! any participant may commit, so a missing decision proves no participant
//! committed).
//!
//! # Concurrency: lock-ordered coordinators
//!
//! Coordinators run **concurrently**: transactions on disjoint shard sets
//! never touch the same lock, and overlapping ones serialize on their first
//! common shard. Deadlock is avoided by total lock ordering — a coordinator
//! only ever *blocks* on a shard whose id is greater than every shard it
//! already holds. Keys declared up front
//! ([`ShardedStore::transact_keys`](crate::ShardedStore::transact_keys))
//! have their shards locked in ascending id order before the closure runs;
//! shards discovered lazily join in-place when they extend the held set
//! upward. A discovery *below* the highest held id first attempts a
//! non-blocking `try_join` — taking a free lock out of order cannot
//! deadlock, since a cycle needs a wait-for edge — and only a *contended*
//! out-of-order discovery aborts the attempt with an internal restart
//! marker ([`RewindError::LockOrderRestart`]): the coordinator rolls
//! everything back and re-runs the closure with the grown lock set, now
//! acquired in order from the start. The restart is tracked on the
//! transaction handle as well as in the error, so a closure that swallows
//! the marker still restarts rather than committing a partial intent. The
//! lock set only grows, so the retry loop terminates; after
//! [`ORDERED_RESTARTS`] restarts the coordinator stops betting on
//! convergence and falls back to the serial path: an exclusive store gate
//! plus *every* shard locked in ascending order, under which no restart is
//! possible. Group-commit leaders hold exactly one shard lock and never
//! wait for a second, so they cannot participate in a cycle either.
//!
//! The restart re-runs the user closure (which is why `transact` takes
//! `FnMut`); writes from abandoned attempts are rolled back before the
//! re-run, so the closure only ever observes clean state.

use crate::shard::{Participant, PreparedCommit};
use crate::store::ShardedStore;
use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use rewind_core::{Result, RewindError};
use rewind_nvm::{NvmPool, PAddr};
use rewind_obs::{EventKind, Obs};
use rewind_pds::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Durable coordinator state in shard 0's user-root region, after the words
/// owned by the transaction manager (0–4) and the shard header (16–19):
/// `magic, first-page address, next gtid`. The magic goes in last on create
/// so a torn root is never taken for a valid one.
const DECISION_MAGIC: u64 = 0x5245_5744_4543_4944; // "REWDECID"
const DW_MAGIC: u64 = 24;
const DW_ENTRIES: u64 = 25;
const DW_NEXT_GTID: u64 = 26;

/// Entries per decision-table page. Live entries are bounded by the number
/// of coordinators in flight at once plus whatever unacknowledged phase-2
/// commits have not been retired yet; one page covers the common case, and
/// the table grows by chaining fresh pages when fan-in (e.g. a many-terminal
/// TPC-C run riding out repeated participant failures) exceeds it.
const PAGE_ENTRIES: u64 = 128;
/// Words per entry: `gtid, decision`. An entry is live iff its gtid word is
/// non-zero, which is why the gtid is written last.
const ENTRY_WORDS: u64 = 2;
/// Page layout: one header word (pool offset of the next page, 0 = none)
/// followed by [`PAGE_ENTRIES`] entries.
const PAGE_WORDS: u64 = 1 + PAGE_ENTRIES * ENTRY_WORDS;
const DECIDE_COMMIT: u64 = 1;

/// Out-of-order lock discoveries tolerated before a transaction gives up on
/// ordered re-acquisition and takes the exclusive serial path. Each restart
/// grows the known lock set by at least one shard, so convergence is
/// guaranteed eventually — but a closure that keeps discovering shards
/// below its held frontier re-runs (and rolls back) every time, and after a
/// few of those the all-shards fallback is cheaper than another bet.
const ORDERED_RESTARTS: usize = 3;

/// The persistent commit-decision table of the two-phase-commit coordinator,
/// stored in shard 0's pool. Appending a commit decision here is the
/// atomic commit point of a cross-shard transaction.
///
/// Concurrent coordinators share this table: the volatile `mutate` latch
/// serializes gtid allocation and entry writes (slot choice + the two-word
/// entry write must not interleave), while the persistent format is what
/// makes each *entry* individually crash-atomic — the decision word goes in
/// before the gtid word, so a torn entry is never live. Readers
/// ([`DecisionLog::decided_commit`]) only run during recovery resolution,
/// under the store's exclusive gate.
///
/// The table is a chain of [`PAGE_ENTRIES`]-entry pages: when every slot of
/// every page is live, [`DecisionLog::record_commit`] allocates a fresh
/// zeroed page and links it from the last page's header word — link before
/// entry, both read back from the persistent image, so a decision is only
/// reported durable when recovery could actually reach it. Growth is
/// permanent (pages are never unlinked); a store that once needed two pages
/// of in-flight decisions keeps the headroom.
#[derive(Debug)]
pub(crate) struct DecisionLog {
    pool: Arc<NvmPool>,
    first_page: PAddr,
    /// Serializes gtid allocation and entry mutation between concurrent
    /// coordinators. Word-sized pool accesses are individually atomic; this
    /// latch makes the read-modify-write sequences (counter bump, find-slot
    /// + write, page growth) atomic as units.
    mutate: Mutex<()>,
}

impl DecisionLog {
    /// Formats a fresh decision table in `pool` (shard 0's pool).
    pub(crate) fn create(pool: Arc<NvmPool>) -> Result<DecisionLog> {
        let first_page = Self::format_page(&pool)?;
        let root = pool.user_root();
        pool.write_u64_nt(root.word(DW_ENTRIES), first_page.offset());
        pool.write_u64_nt(root.word(DW_NEXT_GTID), 1);
        pool.sfence();
        pool.write_u64_nt(root.word(DW_MAGIC), DECISION_MAGIC);
        pool.sfence();
        Ok(DecisionLog {
            pool,
            first_page,
            mutate: Mutex::new(()),
        })
    }

    /// Re-attaches to a decision table already present in `pool` (shard 0's
    /// reopened file). Validation failures are typed
    /// [`RewindError::Corrupt`] — a file that reopened fine at the pool
    /// level can still have lost the coordinator root to a torn create.
    pub(crate) fn attach(pool: Arc<NvmPool>) -> Result<DecisionLog> {
        let root = pool.user_root();
        if pool.read_u64(root.word(DW_MAGIC)) != DECISION_MAGIC {
            return Err(RewindError::Corrupt {
                detail: "shard 0's pool holds no decision table".to_string(),
            });
        }
        let first = pool.read_u64(root.word(DW_ENTRIES));
        if first == 0 {
            return Err(RewindError::Corrupt {
                detail: "decision table root points at no first page".to_string(),
            });
        }
        Ok(DecisionLog {
            pool,
            first_page: PAddr::new(first),
            mutate: Mutex::new(()),
        })
    }

    /// Allocates and zeroes one decision page. Fresh pool memory is never
    /// recycled, so the persistent image under the page is all-zero even if
    /// a dying pool drops these writes — a torn grow can leak a page, never
    /// fabricate a live entry.
    fn format_page(pool: &Arc<NvmPool>) -> Result<PAddr> {
        let page = pool.alloc((PAGE_WORDS * 8) as usize)?;
        for w in 0..PAGE_WORDS {
            pool.write_u64_nt(page.word(w), 0);
        }
        pool.sfence();
        Ok(page)
    }

    /// The `i`-th entry of `page` (past the next-page header word).
    fn entry_at(page: PAddr, i: u64) -> PAddr {
        page.word(1 + i * ENTRY_WORDS)
    }

    /// The page linked after `page`, if any.
    fn next_page(&self, page: PAddr) -> Option<PAddr> {
        match self.pool.read_u64(page) {
            0 => None,
            off => Some(PAddr::new(off)),
        }
    }

    /// Durably allocates the next global transaction id. Ids are monotonic
    /// across power cycles (the counter word is persisted before use), so a
    /// stale decision entry can never be mistaken for a new transaction's.
    pub(crate) fn allocate_gtid(&self) -> Result<u64> {
        let _latch = self.mutate.lock();
        let root = self.pool.user_root();
        let gtid = self.pool.read_u64(root.word(DW_NEXT_GTID)).max(1);
        self.pool.write_u64_nt(root.word(DW_NEXT_GTID), gtid + 1);
        self.pool.sfence();
        self.ack()?;
        Ok(gtid)
    }

    /// Finds a free entry slot, growing the chain by one fresh page when
    /// every slot of every page is live. Must run under the `mutate` latch.
    fn free_slot(&self) -> Result<PAddr> {
        let mut page = self.first_page;
        loop {
            if let Some(i) =
                (0..PAGE_ENTRIES).find(|i| self.pool.read_u64(Self::entry_at(page, *i)) == 0)
            {
                return Ok(Self::entry_at(page, i));
            }
            match self.next_page(page) {
                Some(next) => page = next,
                None => {
                    // Grow: link a fresh zeroed page behind the chain. The
                    // link must be durable before any entry in the new page
                    // can claim to be — recovery reaches entries through the
                    // chain, so an unpersisted link word would orphan them.
                    let fresh = Self::format_page(&self.pool)?;
                    self.pool.write_u64_nt(page, fresh.offset());
                    self.pool.sfence();
                    // On a file pool the persistent image alone is not proof:
                    // a failed write-back restores the line's pending bit, so
                    // the link only counts once its line reached the medium.
                    if self.pool.read_u64_persistent(page) != fresh.offset()
                        || self.pool.write_back_pending(page)
                    {
                        return Err(RewindError::Offline("decision log (pool failed)"));
                    }
                    return Ok(Self::entry_at(fresh, 0));
                }
            }
        }
    }

    /// Durably records the commit decision for `gtid` — the commit point.
    /// The decision word goes in before the gtid word, so a torn entry is
    /// never live.
    ///
    /// The return value is the truth about the commit point, not a guess:
    /// the entry is read back from the *persistent* image, because exactly
    /// one atomic event (the gtid word reaching NVM) decides the
    /// transaction. A pool that dies on the trailing fence may still have
    /// persisted that word — recovery would then find the decision and
    /// commit every in-doubt participant, so the coordinator must commit
    /// the live ones too, not abort them. `Ok` means the decision is on the
    /// medium; `Err` means it provably is not (presumed abort everywhere).
    pub(crate) fn record_commit(&self, gtid: u64) -> Result<()> {
        let _latch = self.mutate.lock();
        let e = self.free_slot()?;
        self.pool.write_u64_nt(e.word(1), DECIDE_COMMIT);
        self.pool.sfence();
        self.pool.write_u64_nt(e, gtid);
        self.pool.sfence();
        // On heap pools the persistent-image read-back is the whole truth.
        // On file pools the image may be ahead of the medium: a failed
        // write-back restored the line's pending bit at the fence, so the
        // decision additionally counts as durable only when nothing on its
        // cacheline is still waiting to reach the file.
        let durable = self.pool.read_u64_persistent(e) == gtid
            && self.pool.read_u64_persistent(e.word(1)) == DECIDE_COMMIT
            && !self.pool.write_back_pending(e)
            && !self.pool.write_back_pending(e.word(1));
        if durable {
            Ok(())
        } else {
            Err(RewindError::Offline("decision log (pool failed)"))
        }
    }

    /// Whether a commit decision for `gtid` was persisted. Anything else is
    /// presumed aborted.
    pub(crate) fn decided_commit(&self, gtid: u64) -> bool {
        let mut page = Some(self.first_page);
        while let Some(p) = page {
            if (0..PAGE_ENTRIES).any(|i| {
                let e = Self::entry_at(p, i);
                self.pool.read_u64(e) == gtid && self.pool.read_u64(e.word(1)) == DECIDE_COMMIT
            }) {
                return true;
            }
            page = self.next_page(p);
        }
        false
    }

    /// Retires the decision entry for `gtid` (all participants finished; no
    /// in-doubt transaction can ask for it anymore).
    pub(crate) fn forget(&self, gtid: u64) {
        let _latch = self.mutate.lock();
        // Gtids are unique: stop at the first (only) match — the latch is a
        // global critical section on the concurrent commit path, so the
        // scan tail would be pure waste.
        let mut page = Some(self.first_page);
        while let Some(p) = page {
            for i in 0..PAGE_ENTRIES {
                let e = Self::entry_at(p, i);
                if self.pool.read_u64(e) == gtid {
                    self.pool.write_u64_nt(e, 0);
                    self.pool.sfence();
                    return;
                }
            }
            page = self.next_page(p);
        }
    }

    /// Retires every decision entry — called after recovery resolved all
    /// in-doubt transactions, when no one can consult the table anymore.
    /// Pages stay linked: headroom once grown is kept.
    pub(crate) fn clear(&self) {
        let _latch = self.mutate.lock();
        let mut page = Some(self.first_page);
        while let Some(p) = page {
            for i in 0..PAGE_ENTRIES {
                self.pool.write_u64_nt(Self::entry_at(p, i), 0);
            }
            page = self.next_page(p);
        }
        self.pool.sfence();
    }

    /// Whether the decision table's pool died on a **medium I/O failure** —
    /// the ambiguous death: a completed `write` survives a failed `fsync`
    /// in the process-death model, so an unconfirmed entry may still sit on
    /// the file. The simulated freeze is the unambiguous death (dropped
    /// writes provably never reached the medium), and reports `false` here.
    pub(crate) fn medium_failed(&self) -> bool {
        self.pool.io_error().is_some()
    }

    /// The missing acknowledgement of the crash model: the simulated pool
    /// reports a died-mid-write device by freezing (dropping writes while
    /// the code keeps running), where real hardware would simply never
    /// answer. A frozen pool right after a fence means the preceding writes
    /// never became durable.
    fn ack(&self) -> Result<()> {
        if self.pool.crash_injector().is_frozen() {
            Err(RewindError::Offline("decision log (pool failed)"))
        } else {
            Ok(())
        }
    }
}

/// Point-in-time counters of the cross-shard coordinator, folded into
/// [`ShardStats::coord`](crate::ShardStats::coord) so one
/// [`ShardedStore::stats`](crate::ShardedStore::stats) call reports the
/// whole store.
///
/// `restarts` counts lock-ordered attempts that were rolled back and re-run
/// because a shard was discovered, contended, below the held lock frontier;
/// `serial_fallbacks` counts transactions that exhausted the restart budget
/// and settled under the exclusive all-shards pass. A workload whose write
/// sets are declared up front ([`ShardedStore::transact_keys`](crate::ShardedStore::transact_keys))
/// should observe **zero** of both — which is exactly what the TPC-C
/// payment tests assert.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoordinatorStats {
    /// Lock-order restarts taken by `transact`/`transact_keys` attempts.
    pub restarts: u64,
    /// Transactions that fell back to the exclusive serial pass.
    pub serial_fallbacks: u64,
}

/// The store-level two-phase-commit coordinator: the persistent decision
/// table plus the gate that arbitrates between concurrent lock-ordered
/// transactions (shared side) and the exclusive store-wide passes — the
/// serial fallback and recovery-time in-doubt resolution (exclusive side).
#[derive(Debug)]
pub(crate) struct Coordinator {
    gate: RwLock<()>,
    decisions: DecisionLog,
    restarts: AtomicU64,
    serial_fallbacks: AtomicU64,
    obs: Obs,
}

impl Coordinator {
    /// Creates the coordinator for a fresh store, formatting its decision
    /// table in `pool0` (shard 0's pool).
    pub(crate) fn create(pool0: Arc<NvmPool>, obs: Obs) -> Result<Coordinator> {
        Ok(Coordinator {
            gate: RwLock::new(()),
            decisions: DecisionLog::create(pool0)?,
            restarts: AtomicU64::new(0),
            serial_fallbacks: AtomicU64::new(0),
            obs,
        })
    }

    /// Re-attaches the coordinator of a reopened store to the decision
    /// table persisted in `pool0` (shard 0's pool).
    pub(crate) fn attach(pool0: Arc<NvmPool>, obs: Obs) -> Result<Coordinator> {
        Ok(Coordinator {
            gate: RwLock::new(()),
            decisions: DecisionLog::attach(pool0)?,
            restarts: AtomicU64::new(0),
            serial_fallbacks: AtomicU64::new(0),
            obs,
        })
    }

    /// Restart/fallback counters since store creation.
    pub(crate) fn stats(&self) -> CoordinatorStats {
        CoordinatorStats {
            restarts: self.restarts.load(Ordering::Relaxed),
            serial_fallbacks: self.serial_fallbacks.load(Ordering::Relaxed),
        }
    }

    /// The shared side of the gate: held by every lock-ordered coordinator
    /// for the duration of its attempt.
    fn shared(&self) -> RwLockReadGuard<'_, ()> {
        self.gate.read()
    }

    /// The exclusive side of the gate: the serial transaction fallback and
    /// recovery-time in-doubt resolution, which must not overlap any
    /// lock-ordered coordinator.
    pub(crate) fn exclusive(&self) -> RwLockWriteGuard<'_, ()> {
        self.gate.write()
    }

    pub(crate) fn decisions(&self) -> &DecisionLog {
        &self.decisions
    }

    /// Runs one cross-shard transaction end to end: lock-ordered attempts
    /// with restarts while the discovered lock set grows, then the serial
    /// all-shards fallback. `declared` keys have their shards locked up
    /// front (in ascending id order), so a closure that stays inside its
    /// declared write-set never restarts.
    pub(crate) fn run<T>(
        &self,
        store: &ShardedStore,
        declared: &[u64],
        mut f: impl FnMut(&mut StoreTx<'_>) -> Result<T>,
    ) -> Result<T> {
        let shards = store.shard_count();
        let mut needed = vec![false; shards];
        for &key in declared {
            needed[store.shard_of(key)] = true;
        }
        for _ in 0..=ORDERED_RESTARTS {
            let _shared = self.shared();
            let mut tx = StoreTx::new(store, true);
            let outcome = tx.pre_join(&needed).and_then(|()| f(&mut tx));
            // The restart signal is tracked on the transaction itself, not
            // just in the returned error: a closure that swallows or remaps
            // the marker must still restart — the access that raised it was
            // never performed, so committing this attempt would silently
            // drop part of the transaction's intent.
            if let Some(idx) = tx.restart {
                self.restarts.fetch_add(1, Ordering::Relaxed);
                self.obs.metrics().restarts.incr();
                self.obs.emit(EventKind::LockOrderRestart, 0, idx as u64, 0);
                needed[idx] = true;
                // Carry over every shard the attempt had already joined,
                // not just the contended one: the retry then pre-locks the
                // whole known set in order, so one logical conflict cannot
                // burn several restart-budget slots re-discovering shards
                // one at a time. (Pre-locked shards the closure ends up not
                // touching are released through the read-only path.)
                tx.note_joined(&mut needed);
                tx.abort_all()?;
                continue;
            }
            match outcome {
                Ok(v) => {
                    tx.finish_commit(&self.decisions)?;
                    return Ok(v);
                }
                // A marker without the flag can only be fabricated by the
                // closure; honoring it as a restart keeps the error's
                // contract ("the coordinator re-runs") either way.
                Err(RewindError::LockOrderRestart(idx)) => {
                    self.restarts.fetch_add(1, Ordering::Relaxed);
                    self.obs.metrics().restarts.incr();
                    self.obs.emit(EventKind::LockOrderRestart, 0, idx as u64, 0);
                    needed[idx.min(shards - 1)] = true;
                    tx.note_joined(&mut needed);
                    tx.abort_all()?;
                }
                Err(e) => {
                    tx.abort_all()?;
                    return Err(e);
                }
            }
        }
        // Serial fallback: exclusive access and every shard locked in
        // ascending order — no discovery can be out of order, so exactly one
        // more run settles the transaction.
        self.serial_fallbacks.fetch_add(1, Ordering::Relaxed);
        self.obs.metrics().serial_fallbacks.incr();
        self.obs.emit(EventKind::SerialFallback, 0, 0, 0);
        let _exclusive = self.exclusive();
        let mut tx = StoreTx::new(store, false);
        let all = vec![true; shards];
        match tx.pre_join(&all).and_then(|()| f(&mut tx)) {
            Ok(v) => {
                tx.finish_commit(&self.decisions)?;
                Ok(v)
            }
            Err(e) => {
                tx.abort_all()?;
                // Every shard is held here, so no access can raise the
                // restart marker; one reaching this arm was echoed by the
                // closure from an earlier attempt. Don't leak the internal
                // variant through the public API — the transaction did
                // abort, say so.
                Err(match e {
                    RewindError::LockOrderRestart(_) => RewindError::Aborted(
                        "closure returned a stale lock-order restart marker".to_string(),
                    ),
                    e => e,
                })
            }
        }
    }
}

/// Handle passed to [`ShardedStore::transact`](crate::ShardedStore::transact)
/// closures: typed operations against *any* key of the store inside one
/// atomic cross-shard transaction. Shards join lazily as their keys are
/// touched; each joined shard stays locked until the transaction settles, so
/// route every access through this handle — calling the store's own methods
/// from inside the closure would deadlock on a shard the transaction
/// already holds. Propagate errors from these methods unchanged: the
/// lock-ordered coordinator signals its internal restart through them.
#[derive(Debug)]
pub struct StoreTx<'a> {
    store: &'a ShardedStore,
    /// Joined participants, indexed by shard.
    parts: Vec<Option<Participant<'a>>>,
    /// Whether this attempt runs under the ordered-acquisition discipline
    /// (out-of-order discoveries restart) or holds every shard already (the
    /// serial fallback, where no discovery can be out of order).
    ordered: bool,
    /// Shard whose out-of-order, *contended* discovery poisoned this
    /// attempt. Checked by the coordinator after the closure returns, so a
    /// closure that swallows the [`RewindError::LockOrderRestart`] marker
    /// still restarts instead of committing a partial intent.
    restart: Option<usize>,
}

impl<'a> StoreTx<'a> {
    fn new(store: &'a ShardedStore, ordered: bool) -> StoreTx<'a> {
        StoreTx {
            store,
            parts: (0..store.shard_count()).map(|_| None).collect(),
            ordered,
            restart: None,
        }
    }

    /// Joins every flagged shard in ascending id order before the closure
    /// runs. On a join failure (e.g. an offline shard) the participants
    /// joined so far stay in `parts`; the coordinator settles them through
    /// the same `abort_all` every failed attempt goes through.
    fn pre_join(&mut self, needed: &[bool]) -> Result<()> {
        for (idx, wanted) in needed.iter().enumerate() {
            if !wanted || self.parts[idx].is_some() {
                continue;
            }
            self.parts[idx] = Some(self.store.shard(idx).join()?);
        }
        Ok(())
    }

    /// Flags every shard this attempt has joined in `needed` (restart
    /// bookkeeping: the retry pre-locks the whole known set in order).
    fn note_joined(&self, needed: &mut [bool]) {
        for (idx, p) in self.parts.iter().enumerate() {
            if p.is_some() {
                needed[idx] = true;
            }
        }
    }

    fn participant(&mut self, key: u64) -> Result<&mut Participant<'a>> {
        // A poisoned attempt is doomed: every further access fails fast
        // instead of taking more locks and logging writes that are
        // guaranteed to roll back — this is what bounds a closure that
        // swallows the marker and keeps going.
        if let Some(poisoned) = self.restart {
            return Err(RewindError::LockOrderRestart(poisoned));
        }
        let idx = self.store.shard_of(key);
        if self.parts[idx].is_none() {
            if self.ordered && self.parts[idx + 1..].iter().any(Option::is_some) {
                // Below the lock frontier. Acquiring a *free* lock out of
                // order is still deadlock-safe (a cycle needs a wait-for
                // edge, and try_join never waits), so only a contended
                // discovery pays the restart: mark the attempt poisoned and
                // raise the marker — blocking here could deadlock against a
                // coordinator acquiring in order.
                match self.store.shard(idx).try_join()? {
                    Some(p) => self.parts[idx] = Some(p),
                    None => {
                        self.restart = Some(idx);
                        return Err(RewindError::LockOrderRestart(idx));
                    }
                }
            } else {
                self.parts[idx] = Some(self.store.shard(idx).join()?);
            }
        }
        Ok(self.parts[idx].as_mut().expect("participant just joined"))
    }

    /// Reads `key` (sees the transaction's own uncommitted writes). Joins
    /// the owning shard: even pure reads are isolated until commit.
    pub fn get(&mut self, key: u64) -> Result<Option<Value>> {
        Ok(self.participant(key)?.get(key))
    }

    /// Inserts or overwrites `key` within the transaction.
    pub fn put(&mut self, key: u64, value: Value) -> Result<()> {
        self.participant(key)?.put(key, value)
    }

    /// Removes `key` within the transaction; reports whether it was present.
    pub fn delete(&mut self, key: u64) -> Result<bool> {
        self.participant(key)?.delete(key)
    }

    /// Number of shards the transaction holds so far (including shards
    /// pre-locked for a declared write-set that the closure has not touched
    /// yet).
    pub fn participants(&self) -> usize {
        self.parts.iter().flatten().count()
    }

    /// The shard index owning `key` (does not join the shard).
    pub fn shard_of(&self, key: u64) -> usize {
        self.store.shard_of(key)
    }

    /// Aborts the transaction by returning an error for the closure to
    /// propagate; every participant rolls back.
    pub fn abort<T>(&self, reason: &str) -> Result<T> {
        Err(RewindError::Aborted(reason.to_string()))
    }

    /// Commits the transaction. Participants that never wrote are released
    /// through the record-less read-only path; writers take one-phase
    /// commit when alone and the full two-phase protocol otherwise.
    fn finish_commit(&mut self, decisions: &DecisionLog) -> Result<()> {
        let obs = self.store.obs();
        let (writers, readers): (Vec<Participant<'a>>, Vec<Participant<'a>>) =
            self.parts.drain(..).flatten().partition(Participant::wrote);
        match writers.len() {
            0 => Self::release(readers),
            1 => {
                // One-phase fast path: REWIND's own commit is the atomicity
                // story; the readers' locks are held until it settles (the
                // commit is the decision).
                let outcome = writers[0].commit_plain();
                let released = Self::release(readers);
                outcome.and(released)
            }
            _ => Self::two_phase(obs, decisions, writers, readers),
        }
    }

    /// Releases read-only participants (no records, no log traffic).
    fn release(readers: Vec<Participant<'a>>) -> Result<()> {
        let mut first_err = None;
        for r in readers {
            if let Err(e) = r.release_read_only() {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    fn two_phase(
        obs: &Obs,
        decisions: &DecisionLog,
        mut writers: Vec<Participant<'a>>,
        readers: Vec<Participant<'a>>,
    ) -> Result<()> {
        let t0 = obs.clock();
        // Every exit below must settle all participants — a bare `?` here
        // would drop them with their uncommitted tree writes still visible
        // (and their Running transactions leaked in the per-shard tables).
        let abort_everything =
            |gtid: u64, writers: &[Participant<'a>], readers: Vec<Participant<'a>>| {
                for q in writers {
                    obs.emit(EventKind::TwoPcAbortPart, gtid, q.shard_id() as u64, 0);
                    let _ = q.abort();
                }
                let _ = Self::release(readers);
            };
        let gtid = match decisions.allocate_gtid() {
            Ok(gtid) => gtid,
            Err(e) => {
                abort_everything(0, &writers, readers);
                return Err(e);
            }
        };
        obs.emit(EventKind::TwoPcStart, gtid, writers.len() as u64, 0);

        // Phase 1: prepare every writer. Any failure aborts the whole
        // transaction — already-prepared participants roll back through the
        // prepared path, the rest through a plain rollback. A participant
        // whose pool died keeps its durable PREPARE record; the missing
        // decision entry makes recovery presume abort, matching the live
        // rollbacks here. Read-only participants skip the phase: nothing to
        // make durable, nothing to leave in doubt.
        for p in &writers {
            let tp = obs.clock();
            if let Err(e) = p.prepare(gtid) {
                obs.emit(EventKind::TwoPcDecision, gtid, 0, 0);
                abort_everything(gtid, &writers, readers);
                return Err(e);
            }
            if tp.is_some() {
                let ns = Obs::elapsed_ns(tp);
                obs.metrics().prepare_ns.record(ns);
                obs.emit(EventKind::TwoPcPrepare, gtid, p.shard_id() as u64, ns);
            }
        }

        // The commit point: persist the decision. How a failure here is
        // settled depends on *which way* the decision pool died:
        //
        // * Simulated freeze — the dropped writes provably never reached
        //   the medium, so no recovery will ever find the entry: presumed
        //   abort, roll everyone back live.
        // * Medium I/O failure — ambiguous. In the process-death model a
        //   completed `write` survives a failed `fsync`, so the entry may
        //   sit on the file even though the fence never confirmed it.
        //   Rolling writers back could contradict a surviving entry;
        //   committing them could contradict a missing one. The only sound
        //   move is the classic blocked-2PC one: fail every writer in place
        //   (pool frozen, shard offline), preserving their durable PREPARE
        //   records, and leave the whole transaction in doubt until the
        //   store reopens from its files and resolves it — uniformly —
        //   against whatever the table actually holds.
        if let Err(e) = decisions.record_commit(gtid) {
            obs.emit(EventKind::TwoPcDecision, gtid, 0, 0);
            if decisions.medium_failed() {
                for q in writers.iter_mut() {
                    q.fail_in_doubt();
                }
            }
            abort_everything(gtid, &writers, readers);
            return Err(e);
        }
        obs.emit(EventKind::TwoPcDecision, gtid, 1, 0);

        // The outcome is final: release the read-only participants now.
        // Their locks kept the values they read stable up to the commit
        // point (strict two-phase locking); phase 2 below only replays a
        // decision that can no longer change.
        let readers_released = Self::release(readers);

        // Phase 2: commit every writer. The decision is durable, so
        // nothing past this point can un-commit the transaction — an error
        // is still surfaced (same ambiguous-commit caveat as a failed
        // group-commit acknowledgement), and recovery finishes the job for
        // any participant left in doubt. The decision entry is retired only
        // once *every* participant durably acked its END record: a
        // participant whose pool died mid-commit holds a durable PREPARE
        // and nothing else, and resolution must still find the commit
        // decision to drive it forward.
        //
        // Queued prepare: the decision is durable, so the transaction can
        // never roll back — each writer's shard lock is released *now*,
        // before its END record lands. Group commits and reads slip in
        // behind the released locks and interleave with the in-doubt window
        // (shards stay `prepared` until the END below); the detached handles
        // only touch per-transaction log state through the
        // internally-synchronized transaction manager.
        let mut all_acked = true;
        let mut first_err = readers_released.err();
        let handles: Vec<PreparedCommit> = writers
            .into_iter()
            .map(Participant::detach_for_commit)
            .collect();
        for h in &handles {
            match h.commit_prepared() {
                Ok(acked) => {
                    all_acked &= acked;
                    obs.emit(EventKind::TwoPcCommitPart, gtid, h.shard_id() as u64, 0);
                }
                Err(e) => {
                    all_acked = false;
                    first_err.get_or_insert(e);
                }
            }
        }
        if all_acked {
            decisions.forget(gtid);
            obs.emit(EventKind::TwoPcRetire, gtid, 0, 0);
        }
        if t0.is_some() {
            obs.metrics().two_phase_ns.record(Obs::elapsed_ns(t0));
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// The closure failed (or an attempt restarts): roll every participant
    /// back. Participants that never wrote are released through the
    /// record-less path.
    fn abort_all(&mut self) -> Result<()> {
        let mut first_err = None;
        for p in self.parts.drain(..).flatten() {
            if let Err(e) = p.abort() {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rewind_nvm::{FaultConfig, PoolConfig};
    use std::path::{Path, PathBuf};

    fn log() -> DecisionLog {
        let pool = NvmPool::new(PoolConfig::with_capacity(8 << 20));
        DecisionLog::create(pool).unwrap()
    }

    /// A unique temp path per call, so concurrently running tests never
    /// collide on a pool file.
    fn tmpfile(name: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "rewind-coord-{name}-{}-{}.pool",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn file_log(path: &Path, faults: FaultConfig) -> DecisionLog {
        let pool =
            NvmPool::create_file_with_faults(PoolConfig::with_capacity(2 << 20), path, faults)
                .unwrap();
        DecisionLog::create(pool).unwrap()
    }

    /// Fills the first page exactly: one committed decision per slot.
    fn fill_first_page(d: &DecisionLog) -> Vec<u64> {
        let gtids: Vec<u64> = (0..PAGE_ENTRIES)
            .map(|_| d.allocate_gtid().unwrap())
            .collect();
        for &g in &gtids {
            d.record_commit(g).unwrap();
        }
        gtids
    }

    /// Every live gtid reachable by walking the page chain.
    fn live_gtids(d: &DecisionLog) -> Vec<u64> {
        let mut out = Vec::new();
        let mut page = Some(d.first_page);
        while let Some(p) = page {
            for i in 0..PAGE_ENTRIES {
                let g = d.pool.read_u64(DecisionLog::entry_at(p, i));
                if g != 0 {
                    out.push(g);
                }
            }
            page = d.next_page(p);
        }
        out
    }

    fn crash_seed() -> u64 {
        std::env::var("REWIND_CRASH_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0)
    }

    #[test]
    fn decision_log_grows_past_one_page() {
        let d = log();
        // Three pages' worth of live decisions, none retired in between —
        // the fan-in a fixed 128-entry array could not absorb.
        let gtids: Vec<u64> = (0..3 * PAGE_ENTRIES)
            .map(|_| d.allocate_gtid().unwrap())
            .collect();
        for &g in &gtids {
            d.record_commit(g).unwrap();
        }
        for &g in &gtids {
            assert!(d.decided_commit(g), "gtid {g} lost during growth");
        }
        assert!(!d.decided_commit(gtids.last().unwrap() + 1));
        // Entries live in the persistent image: a power cycle (volatile
        // state rebuilt from NVM) must not lose a single decision.
        d.pool.power_cycle();
        for &g in &gtids {
            assert!(d.decided_commit(g), "gtid {g} not durable");
        }
        // Retiring an entry on a grown page leaves the others alone.
        let victim = gtids[PAGE_ENTRIES as usize + 7];
        d.forget(victim);
        assert!(!d.decided_commit(victim));
        assert!(d.decided_commit(gtids[PAGE_ENTRIES as usize + 8]));
        // Clear retires everything across every page; the freed slots are
        // reused before any further growth.
        d.clear();
        for &g in &gtids {
            assert!(!d.decided_commit(g));
        }
        let fresh = d.allocate_gtid().unwrap();
        d.record_commit(fresh).unwrap();
        assert!(d.decided_commit(fresh));
    }

    #[test]
    fn concurrent_decisions_exceed_one_page() {
        // Eight coordinator-like threads commit decisions concurrently until
        // well past one page of simultaneously-live entries (8 × 20 = 160 >
        // 128): growth, slot choice and the entry writes must all be safe
        // under the latch, and every decision must be readable afterwards.
        let d = log();
        let mut slots: Vec<Option<Vec<u64>>> = (0..8).map(|_| None).collect();
        std::thread::scope(|s| {
            for slot in slots.iter_mut() {
                let d = &d;
                s.spawn(move || {
                    let mine: Vec<u64> = (0..20)
                        .map(|_| {
                            let g = d.allocate_gtid().unwrap();
                            d.record_commit(g).unwrap();
                            g
                        })
                        .collect();
                    *slot = Some(mine);
                });
            }
        });
        let all: Vec<u64> = slots.into_iter().flat_map(|s| s.unwrap()).collect();
        assert_eq!(all.len(), 160);
        // Gtids are unique across threads (the durable counter is latched).
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 160, "duplicate gtids under concurrency");
        for &g in &all {
            assert!(d.decided_commit(g), "gtid {g} lost");
        }
        // Concurrent retirement drains the chain completely.
        std::thread::scope(|s| {
            for chunk in all.chunks(20) {
                let d = &d;
                s.spawn(move || {
                    for &g in chunk {
                        d.forget(g);
                    }
                });
            }
        });
        for &g in &all {
            assert!(!d.decided_commit(g));
        }
    }

    #[test]
    fn decision_log_attach_round_trips_through_a_file() {
        let path = tmpfile("attach");
        let gtids: Vec<u64> = {
            let d = file_log(&path, FaultConfig::default());
            (0..10)
                .map(|_| {
                    let g = d.allocate_gtid().unwrap();
                    d.record_commit(g).unwrap();
                    g
                })
                .collect()
        };
        // A fresh process incarnation: reopen the file, re-attach the table.
        let pool = NvmPool::open_file(PoolConfig::with_capacity(2 << 20), &path).unwrap();
        let d = DecisionLog::attach(pool).unwrap();
        for &g in &gtids {
            assert!(d.decided_commit(g), "gtid {g} lost across reopen");
        }
        // Gtid monotonicity survives too: the next allocation is past every
        // persisted one.
        let fresh = d.allocate_gtid().unwrap();
        assert!(fresh > *gtids.last().unwrap());
        // A pool that never held a decision table is a typed corruption,
        // not a panic.
        let bare = NvmPool::create_file(PoolConfig::with_capacity(2 << 20), tmpfile("attach-bare"))
            .unwrap();
        assert!(matches!(
            DecisionLog::attach(bare),
            Err(RewindError::Corrupt { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_grow_under_simulated_freeze_never_fabricates_a_decision() {
        // The 129th commit grows the chain: fresh page zeroed and fenced,
        // link word written and fenced, then the entry's two words across
        // two more fences. Measure that persist-event window on an
        // un-faulted heap twin (persist events are backend-independent).
        let window = {
            let d = log();
            fill_first_page(&d);
            let g = d.allocate_gtid().unwrap();
            let before = d.pool.crash_injector().observed_events();
            d.record_commit(g).unwrap();
            d.pool.crash_injector().observed_events() - before
        };
        assert!(window > 4, "growth must span several persist points");

        // Freeze the pool at points across the window (strided, plus every
        // point near the tail where the link and entry words go in). The
        // freeze is the *unambiguous* death — dropped writes provably never
        // reach the file — so the oracle is exact: the decision is
        // reachable after reopening the file iff record_commit said so.
        let mut points: Vec<u64> = (1 + crash_seed() % 13..=window).step_by(13).collect();
        points.extend(window.saturating_sub(8)..=window);
        for k in points {
            let path = tmpfile(&format!("freeze-{k}"));
            let d = file_log(&path, FaultConfig::default());
            let old = fill_first_page(&d);
            let g = d.allocate_gtid().unwrap();
            d.pool.crash_injector().arm_after(k);
            let r = d.record_commit(g);
            drop(d);

            let pool = NvmPool::open_file(PoolConfig::with_capacity(2 << 20), &path).unwrap();
            let d = DecisionLog::attach(pool).unwrap();
            for &o in &old {
                assert!(d.decided_commit(o), "freeze at {k}: gtid {o} lost");
            }
            assert_eq!(
                d.decided_commit(g),
                r.is_ok(),
                "freeze at {k}: reopened file and record_commit disagree \
                 about gtid {g}"
            );
            let live = live_gtids(&d);
            assert!(
                live.iter().all(|&x| x <= g),
                "freeze at {k}: fabricated gtid in {live:?}"
            );
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn torn_grow_across_two_fsyncs_never_fabricates_a_decision() {
        // Measure the I/O-operation window (writes + fsyncs) of the growing
        // 129th commit on an identical un-faulted file twin: the fill is
        // deterministic, so operation numbers line up exactly.
        let twin_path = tmpfile("grow-twin");
        let (a, b) = {
            let d = file_log(&twin_path, FaultConfig::default());
            fill_first_page(&d);
            let g = d.allocate_gtid().unwrap();
            let a = d.pool.backend_io_ops().unwrap();
            d.record_commit(g).unwrap();
            (a, d.pool.backend_io_ops().unwrap())
        };
        std::fs::remove_file(&twin_path).ok();
        assert!(
            b - a >= 4,
            "the grow must span several I/O ops (two fsyncs)"
        );

        // Sweep a torn write and a failed fsync across every operation of
        // the grow. Medium faults are the *ambiguous* death — a completed
        // write survives a failed fsync in the process-death model — so the
        // oracle is one-sided plus structural: nothing already durable is
        // lost, nothing unallocated becomes reachable, and an `Ok` from
        // record_commit always means the decision survives the reopen.
        for k in a + 1..=b {
            for torn in [false, true] {
                let faults = if torn {
                    FaultConfig {
                        seed: crash_seed(),
                        torn_at: k,
                        ..FaultConfig::default()
                    }
                } else {
                    FaultConfig {
                        fsync_fail_at: k,
                        ..FaultConfig::default()
                    }
                };
                let path = tmpfile(&format!("grow-{k}-{torn}"));
                let d = file_log(&path, faults);
                let old = fill_first_page(&d);
                let g = d.allocate_gtid().unwrap();
                let r = d.record_commit(g);
                drop(d);

                let pool = NvmPool::open_file(PoolConfig::with_capacity(2 << 20), &path).unwrap();
                let d = DecisionLog::attach(pool).unwrap();
                for &o in &old {
                    assert!(
                        d.decided_commit(o),
                        "fault at op {k} (torn={torn}): gtid {o} lost"
                    );
                }
                let live = live_gtids(&d);
                assert!(
                    live.iter().all(|&x| x <= g),
                    "fault at op {k} (torn={torn}): fabricated gtid in {live:?}"
                );
                if r.is_ok() {
                    assert!(
                        d.decided_commit(g),
                        "fault at op {k} (torn={torn}): durable-acked decision \
                         {g} unreachable after reopen"
                    );
                }
                std::fs::remove_file(&path).ok();
            }
        }
    }
}
